type phase_tally = {
  seen1 : bool array;
  seen2 : bool array;
  mutable proposers : int;
  arrivals : int array;  (* (src, value) per proposer, in arrival order *)
  proposal_counts : int array;  (* senders per proposed value, see [bump] *)
  mutable seconds : int;
  ratify_counts : int array;  (* senders per ratified value *)
}

type t = { changed : Dsim.Engine.queue; phases : phase_tally Consensus.Phases.t }

let fresh n () =
  {
    seen1 = Array.make n false;
    seen2 = Array.make n false;
    proposers = 0;
    arrivals = Array.make (2 * n) 0;
    proposal_counts = Array.make (1 + (2 * n)) 0;
    seconds = 0;
    ratify_counts = Array.make (1 + (2 * n)) 0;
  }

(* what every absent phase reads as; never written *)
let empty = fresh 0 ()
let read t phase = Consensus.Phases.get t.phases phase
let phase_tally t phase = Consensus.Phases.obtain t.phases phase

(* Per-value counts, bumped in place: [c.(0)] distinct values, then
   (value, count) pairs from [c.(1)] on.  Senders are distinct, so n
   pairs always suffice. *)
let bump c v =
  let last = 2 * c.(0) in
  let i = ref 1 in
  while !i <= last && c.(!i) <> v do
    i := !i + 2
  done;
  if !i <= last then c.(!i + 1) <- c.(!i + 1) + 1
  else begin
    c.(!i) <- v;
    c.(!i + 1) <- 1;
    c.(0) <- c.(0) + 1
  end

let fold_counts c f acc =
  let acc = ref acc in
  for j = 0 to c.(0) - 1 do
    acc := f !acc c.((2 * j) + 1) c.((2 * j) + 2)
  done;
  !acc

let ingest t env =
  let src = env.Netsim.Async_net.src in
  match env.Netsim.Async_net.payload with
  | Decentralized_msg.Propose { phase; value } ->
      let p = phase_tally t phase in
      if not p.seen1.(src) then begin
        p.seen1.(src) <- true;
        p.arrivals.(2 * p.proposers) <- src;
        p.arrivals.((2 * p.proposers) + 1) <- value;
        p.proposers <- p.proposers + 1;
        Dsim.Engine.signal t.changed;
        bump p.proposal_counts value
      end
  | Decentralized_msg.Second { phase; ratify } ->
      let p = phase_tally t phase in
      if not p.seen2.(src) then begin
        p.seen2.(src) <- true;
        p.seconds <- p.seconds + 1;
        Dsim.Engine.signal t.changed;
        match ratify with
        | Some v -> bump p.ratify_counts v
        | None -> ()
      end

let attach net ~me =
  let t =
    {
      changed = Dsim.Engine.queue (Netsim.Async_net.engine net);
      phases =
        Consensus.Phases.create ~empty ~make:(fresh (Netsim.Async_net.n net));
    }
  in
  Netsim.Async_net.set_handler net me (ingest t);
  t

let changed t = t.changed
let proposers t ~phase = (read t phase).proposers

let proposals_in_arrival_order t ~phase =
  let p = read t phase in
  List.init p.proposers (fun i -> (p.arrivals.(2 * i), p.arrivals.((2 * i) + 1)))

(* Senders are distinct, so at most one value can hold a strict majority. *)
let majority_value t ~phase ~n =
  fold_counts (read t phase).proposal_counts
    (fun found v c -> if 2 * c > n then Some v else found)
    None

let second_senders t ~phase = (read t phase).seconds

let ratifies_for t ~phase v =
  fold_counts (read t phase).ratify_counts
    (fun found v' c -> if v' = v then c else found)
    0

let ratified_values t ~phase =
  List.sort compare (fold_counts (read t phase).ratify_counts (fun l v _ -> v :: l) [])

let forget_below t ~phase = Consensus.Phases.forget_below t.phases phase
