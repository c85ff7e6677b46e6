(* The engine's event queue: a calendar ring of one-tick buckets in front
   of the binary {!Heap}.

   The ring covers the keys [floor, floor + width).  Bucket [k land mask]
   holds exactly the entries of key [k] while [k] is in the window, as a
   list linked through one pooled struct-of-arrays entry store and
   appended at the tail, so every bucket is in seq order.  Keys outside
   the window when added (far-future ones, and ones below the floor) go
   to the heap, under the same dense seq counter.

   The floor only rises, to each popped key (the global minimum at that
   moment), so no ring key is ever below it.  Equal keys split between
   the two parts pop heap-first: a key-[k] entry is in the heap either
   because it was added before [k] entered the window, earlier than
   every ring entry of key [k], or because it was added after the floor
   passed [k], which happened only once the ring held no key-[k] entry,
   and the ring takes none afterwards.  Hence the pop order, the tie
   sets and their seqs are exactly a single heap's. *)

let width = 64
let mask = width - 1

type t = {
  heap : Heap.t;
  head : int array;  (* bucket -> first entry, -1 when empty *)
  tail : int array;  (* bucket -> last entry *)
  (* the entry pool; [next] links the bucket lists and the freelist *)
  mutable seqs : int array;
  mutable vals : int array;
  mutable next : int array;
  mutable free : int;  (* freelist head, -1 when empty *)
  mutable top : int;  (* entries [0, top) have been handed out *)
  mutable rlen : int;  (* entries in the ring *)
  mutable floor : int;
  mutable rmin : int;  (* ring non-empty: floor <= rmin <= its least key *)
  mutable next_seq : int;
}

let create () =
  {
    heap = Heap.create ();
    head = Array.make width (-1);
    tail = Array.make width (-1);
    seqs = [||];
    vals = [||];
    next = [||];
    free = -1;
    top = 0;
    rlen = 0;
    floor = 0;
    rmin = 0;
    next_seq = 0;
  }

let length t = t.rlen + Heap.length t.heap
let is_empty t = t.rlen = 0 && Heap.is_empty t.heap
let last_seq t = t.next_seq - 1

let grow t filler =
  let cap = Array.length t.vals in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let seqs = Array.make ncap 0
  and vals = Array.make ncap filler
  and next = Array.make ncap (-1) in
  Array.blit t.seqs 0 seqs 0 cap;
  Array.blit t.vals 0 vals 0 cap;
  Array.blit t.next 0 next 0 cap;
  t.seqs <- seqs;
  t.vals <- vals;
  t.next <- next

let add t ~key value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* the floor is never negative, so [key - t.floor] cannot overflow *)
  if key >= t.floor && key - t.floor < width then begin
    let e =
      if t.free >= 0 then begin
        let e = t.free in
        t.free <- t.next.(e);
        e
      end
      else begin
        let e = t.top in
        if e = Array.length t.vals then grow t value;
        t.top <- e + 1;
        e
      end
    in
    t.seqs.(e) <- seq;
    t.vals.(e) <- value;
    t.next.(e) <- -1;
    let b = key land mask in
    let last = t.tail.(b) in
    if last < 0 then t.head.(b) <- e else t.next.(last) <- e;
    t.tail.(b) <- e;
    if t.rlen = 0 || key < t.rmin then t.rmin <- key;
    t.rlen <- t.rlen + 1
  end
  else Heap.add_seq t.heap ~key ~seq value

(* Settle [rmin] on the ring's least key; the ring must be non-empty.
   The buckets scanned on the way are in the window and empty. *)
let ring_min t =
  let k = ref t.rmin in
  while t.head.(!k land mask) < 0 do
    incr k
  done;
  t.rmin <- !k;
  !k

(* Whether the minimum entry is the heap's, settling [rmin] otherwise. *)
let heap_first t =
  if t.rlen = 0 then true
  else
    let r = ring_min t in
    (not (Heap.is_empty t.heap)) && Heap.peek_key_fast t.heap <= r

let peek_key_fast t = if heap_first t then Heap.peek_key_fast t.heap else t.rmin
let peek_key t = if is_empty t then None else Some (peek_key_fast t)
let raise_floor t key = if key > t.floor then t.floor <- key

let free_entry t e =
  t.next.(e) <- t.free;
  t.free <- e

let pop_value t =
  if heap_first t then begin
    raise_floor t (Heap.peek_key_fast t.heap);
    Heap.pop_value t.heap
  end
  else begin
    let key = t.rmin in
    raise_floor t key;
    let b = key land mask in
    let e = t.head.(b) in
    let nx = t.next.(e) in
    t.head.(b) <- nx;
    if nx < 0 then t.tail.(b) <- -1;
    free_entry t e;
    t.rlen <- t.rlen - 1;
    t.vals.(e)
  end

let pop t =
  if is_empty t then None
  else
    let key = peek_key_fast t in
    Some (key, pop_value t)

(* For the minimum key [key] of a non-empty queue: whether the heap holds
   entries of it, and the first ring entry of it (-1 when none).  Below
   the floor, [key]'s bucket belongs to a later key. *)
let heap_has t key =
  (not (Heap.is_empty t.heap)) && Heap.peek_key_fast t.heap = key

let ring_head t key = if key >= t.floor then t.head.(key land mask) else -1

let fold_ring t key init f =
  let acc = ref init and e = ref (ring_head t key) in
  while !e >= 0 do
    acc := f !acc !e;
    e := t.next.(!e)
  done;
  !acc

let min_key_count t =
  if is_empty t then 0
  else
    let key = peek_key_fast t in
    fold_ring t key
      (if heap_has t key then Heap.min_key_count t.heap else 0)
      (fun n _ -> n + 1)

let min_key_list t heap_part of_entry =
  if is_empty t then []
  else
    let key = peek_key_fast t in
    let ring = List.rev (fold_ring t key [] (fun acc e -> of_entry e :: acc)) in
    if heap_has t key then heap_part t.heap @ ring else ring

let min_key_values t = min_key_list t Heap.min_key_values (fun e -> t.vals.(e))
let min_key_seqs t = min_key_list t Heap.min_key_seqs (fun e -> t.seqs.(e))

(* Unlink and return the [i]-th ring entry of [key], the minimum key. *)
let unlink_nth t key i =
  let b = key land mask in
  let rec go prev e i =
    if e < 0 || i < 0 then invalid_arg "Equeue.pop_min_nth: index out of tied range"
    else if i > 0 then go e t.next.(e) (i - 1)
    else begin
      let nx = t.next.(e) in
      if prev < 0 then t.head.(b) <- nx else t.next.(prev) <- nx;
      if nx < 0 then t.tail.(b) <- prev;
      free_entry t e;
      t.rlen <- t.rlen - 1;
      t.vals.(e)
    end
  in
  go (-1) (ring_head t key) i

let pop_min_nth t n =
  if is_empty t then None
  else begin
    let key = peek_key_fast t in
    let in_heap = if heap_has t key then Heap.min_key_count t.heap else 0 in
    let popped =
      if n >= 0 && n < in_heap then Heap.pop_min_nth t.heap n
      else Some (key, unlink_nth t key (n - in_heap))
    in
    raise_floor t key;
    popped
  end

(* Inside the window each bucket holds one key, the one congruent to the
   bucket: recover it from the floor.  Once the ring is empty every pool
   entry is free, so the pool restarts instead of relinking each. *)
let drain t f =
  let last = ref min_int in
  if t.rlen > 0 then
    for b = 0 to mask do
      let e = ref t.head.(b) in
      if !e >= 0 then begin
        let key = t.floor + ((b - t.floor) land mask) in
        if key > !last then last := key;
        while !e >= 0 do
          f t.vals.(!e);
          e := t.next.(!e)
        done;
        t.head.(b) <- -1;
        t.tail.(b) <- -1
      end
    done;
  t.rlen <- 0;
  t.free <- -1;
  t.top <- 0;
  max !last (Heap.drain t.heap f)

let reset t =
  Heap.reset t.heap;
  Array.fill t.head 0 width (-1);
  Array.fill t.tail 0 width (-1);
  t.free <- -1;
  t.top <- 0;
  t.rlen <- 0;
  t.floor <- 0;
  t.rmin <- 0;
  t.next_seq <- 0
