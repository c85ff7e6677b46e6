(* Struct-of-arrays binary min-heap.

   Entries live in three parallel arrays (key / tiebreak seq / payload)
   instead of one boxed record per insertion, so [add] allocates nothing
   once the arrays are warm and the sift loops touch flat int arrays.
   The sifts move a hole instead of swapping pairs; because (key, seq)
   is a strict total order (seqs are unique) the hole walk makes exactly
   the comparisons the classic swap walk makes and lands every element
   in the same slot — the array layout, and therefore the
   [fold_min_indices] tie enumeration the choice oracle observes, is
   bit-identical to the old boxed implementation. *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable vals : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { keys = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

let grow t filler =
  let cap = Array.length t.keys in
  let new_cap = if cap = 0 then 16 else cap * 2 in
  let keys = Array.make new_cap 0 in
  let seqs = Array.make new_cap 0 in
  (* The filler pads the tail; it is never read past [size]. *)
  let vals = Array.make new_cap filler in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.vals 0 vals 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.vals <- vals

let add_seq t ~key ~seq value =
  if t.size = Array.length t.keys then grow t value;
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  (* Hole-based sift-up: shift larger ancestors down into the hole. *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let stop = ref false in
  while (not !stop) && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = keys.(parent) in
    if pk > key || (pk = key && seqs.(parent) > seq) then begin
      keys.(!i) <- pk;
      seqs.(!i) <- seqs.(parent);
      vals.(!i) <- vals.(parent);
      i := parent
    end
    else stop := true
  done;
  keys.(!i) <- key;
  seqs.(!i) <- seq;
  vals.(!i) <- value

let add t ~key value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  add_seq t ~key ~seq value

(* Hole-based sift-down of the detached element (k, s, v) starting at the
   root: follow the smaller-child path while the child precedes the
   element.  Zero allocation. *)
let sift_down_root t k s v =
  let keys = t.keys and seqs = t.seqs and vals = t.vals in
  let n = t.size in
  let i = ref 0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= n then stop := true
    else begin
      let r = l + 1 in
      let c =
        if
          r < n
          && (keys.(r) < keys.(l) || (keys.(r) = keys.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      if keys.(c) < k || (keys.(c) = k && seqs.(c) < s) then begin
        keys.(!i) <- keys.(c);
        seqs.(!i) <- seqs.(c);
        vals.(!i) <- vals.(c);
        i := c
      end
      else stop := true
    end
  done;
  keys.(!i) <- k;
  seqs.(!i) <- s;
  vals.(!i) <- v

let pop_value t =
  (* Precondition: size > 0 (the engine hot loop checks once). *)
  let top = t.vals.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then sift_down_root t t.keys.(n) t.seqs.(n) t.vals.(n);
  top

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) in
    Some (key, pop_value t)
  end

let peek_key_fast t = t.keys.(0)
let peek_key t = if t.size = 0 then None else Some t.keys.(0)

(* Every entry tied with the minimum key sits in a subtree hanging off the
   root: a node's ancestors have keys <= its own, so an entry equal to the
   minimum has only minimum-key ancestors.  Walking that subtree (pruning
   at the first strictly larger key) visits exactly the tied entries, in
   O(ties) rather than O(size). *)
let fold_min_indices t init f =
  if t.size = 0 then init
  else begin
    let min_key = t.keys.(0) in
    let rec go acc i =
      if i >= t.size || t.keys.(i) <> min_key then acc
      else
        let acc = f acc i in
        let acc = go acc ((2 * i) + 1) in
        go acc ((2 * i) + 2)
    in
    go init 0
  end

let min_key_count t = fold_min_indices t 0 (fun n _ -> n + 1)

let min_entries_by_seq t =
  let idxs = fold_min_indices t [] (fun acc i -> i :: acc) in
  List.sort (fun a b -> compare t.seqs.(a) t.seqs.(b)) (List.rev idxs)

let min_key_values t =
  List.map (fun i -> t.vals.(i)) (min_entries_by_seq t)

let min_key_seqs t =
  List.map (fun i -> t.seqs.(i)) (min_entries_by_seq t)

let last_seq t = t.next_seq - 1

(* Swap-based sifts for interior removal (oracle mode only — cold). *)
let precedes_ix t a b =
  t.keys.(a) < t.keys.(b) || (t.keys.(a) = t.keys.(b) && t.seqs.(a) < t.seqs.(b))

let swap_ix t a b =
  let k = t.keys.(a) and s = t.seqs.(a) and v = t.vals.(a) in
  t.keys.(a) <- t.keys.(b);
  t.seqs.(a) <- t.seqs.(b);
  t.vals.(a) <- t.vals.(b);
  t.keys.(b) <- k;
  t.seqs.(b) <- s;
  t.vals.(b) <- v

let rec sift_up_ix t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes_ix t i parent then begin
      swap_ix t i parent;
      sift_up_ix t parent
    end
  end

let rec sift_down_ix t i =
  let left = (2 * i) + 1 in
  let right = left + 1 in
  let smallest = ref i in
  if left < t.size && precedes_ix t left !smallest then smallest := left;
  if right < t.size && precedes_ix t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap_ix t i !smallest;
    sift_down_ix t !smallest
  end

let remove_at t i =
  let key = t.keys.(i) and value = t.vals.(i) in
  t.size <- t.size - 1;
  if i < t.size then begin
    let n = t.size in
    t.keys.(i) <- t.keys.(n);
    t.seqs.(i) <- t.seqs.(n);
    t.vals.(i) <- t.vals.(n);
    sift_down_ix t i;
    sift_up_ix t i
  end;
  (key, value)

let pop_min_nth t n =
  if t.size = 0 then None
  else begin
    let by_seq = min_entries_by_seq t in
    match List.nth_opt by_seq n with
    | None -> invalid_arg "Heap.pop_min_nth: index out of tied range"
    | Some i -> Some (remove_at t i)
  end

let reset t =
  t.size <- 0;
  t.next_seq <- 0

let drain t f =
  let last = ref min_int in
  for i = 0 to t.size - 1 do
    if t.keys.(i) > !last then last := t.keys.(i);
    f t.vals.(i)
  done;
  t.size <- 0;
  !last
