type 'a t = {
  limit : int;
  mutable vals : 'a array;
  mutable next : int array;  (* freelist links, -1 terminates *)
  mutable free : int;
  mutable top : int;  (* slots [0, top) have been handed out at least once *)
}

let create ~limit = { limit; vals = [||]; next = [||]; free = -1; top = 0 }

let grow t filler =
  let cap = Array.length t.vals in
  let ncap = if cap = 0 then 16 else 2 * cap in
  let vals = Array.make ncap filler and next = Array.make ncap (-1) in
  Array.blit t.vals 0 vals 0 cap;
  Array.blit t.next 0 next 0 cap;
  t.vals <- vals;
  t.next <- next

let alloc t v =
  let slot =
    if t.free >= 0 then begin
      let s = t.free in
      t.free <- t.next.(s);
      s
    end
    else begin
      let s = t.top in
      if s > t.limit then
        invalid_arg
          (Printf.sprintf "Arena.alloc: all %d slots are in use" (t.limit + 1));
      if s = Array.length t.vals then grow t v;
      t.top <- s + 1;
      s
    end
  in
  t.vals.(slot) <- v;
  slot

let take t slot =
  t.next.(slot) <- t.free;
  t.free <- slot;
  t.vals.(slot)

let reset t =
  t.free <- -1;
  t.top <- 0

let live t =
  let free = Array.make t.top false in
  let f = ref t.free in
  while !f >= 0 do
    free.(!f) <- true;
    f := t.next.(!f)
  done;
  let acc = ref [] in
  for slot = t.top - 1 downto 0 do
    if not free.(slot) then acc := t.vals.(slot) :: !acc
  done;
  !acc
