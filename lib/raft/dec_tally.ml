(* One int array per phase: [0] proposers, [1] second-step senders, [2]
   and [3] the numbers of distinct proposed and ratified values, their
   (value, senders) pairs in first-arrival order from [4] and [4 + 2n],
   then the step-1 and step-2 seen flags from [4 + 4n] and [4 + 5n].
   Senders are distinct, so n pairs suffice; readers go past [3] only
   below those numbers, so the shared [empty] stops there. *)
type t = {
  n : int;
  quorum : int;
  changed : Dsim.Engine.queue;
  phases : int array Consensus.Phases.t;
}

let ratifies t = 4 + (2 * t.n)
let seen1 t = 4 + (4 * t.n)
let seen2 t = 4 + (5 * t.n)

(* what every absent phase reads as; never written *)
let empty = Array.make 4 0
let read t phase = Consensus.Phases.get t.phases phase
let phase_tally t phase = Consensus.Phases.obtain t.phases phase

(* One more sender for [v] among the [a.(k)] pairs from [base]. *)
let bump a ~k ~base v =
  let last = base + (2 * a.(k)) in
  let i = ref base in
  while !i < last && a.(!i) <> v do
    i := !i + 2
  done;
  if !i < last then a.(!i + 1) <- a.(!i + 1) + 1
  else begin
    a.(!i) <- v;
    a.(!i + 1) <- 1;
    a.(k) <- a.(k) + 1
  end

(* A step count reaching the quorum is the only change a wait acts on. *)
let count t a i =
  a.(i) <- a.(i) + 1;
  if a.(i) = t.quorum then Dsim.Engine.signal t.changed

let ingest t env =
  let src = env.Netsim.Async_net.src in
  match env.Netsim.Async_net.payload with
  | Decentralized_msg.Propose { phase; value } ->
      let a = phase_tally t phase in
      if a.(seen1 t + src) = 0 then begin
        a.(seen1 t + src) <- 1;
        count t a 0;
        bump a ~k:2 ~base:4 value
      end
  | Decentralized_msg.Second { phase; ratify } ->
      let a = phase_tally t phase in
      if a.(seen2 t + src) = 0 then begin
        a.(seen2 t + src) <- 1;
        count t a 1;
        match ratify with
        | Some v -> bump a ~k:3 ~base:(ratifies t) v
        | None -> ()
      end

let attach net ~me ~quorum =
  let n = Netsim.Async_net.n net in
  let t =
    {
      n;
      quorum;
      changed = Dsim.Engine.queue (Netsim.Async_net.engine net);
      phases =
        Consensus.Phases.create ~empty ~make:(fun () -> Array.make (4 + (6 * n)) 0);
    }
  in
  Netsim.Async_net.set_handler net me (ingest t);
  t

let changed t = t.changed
let proposers t ~phase = (read t phase).(0)
let second_senders t ~phase = (read t phase).(1)

(* The first value with the most proposers, and their number: the pairs
   are in first-arrival order, so ties go to the earliest proposal. *)
let top t phase =
  let a = read t phase in
  let v = ref 0 and c = ref 0 in
  for j = 0 to a.(2) - 1 do
    if a.(5 + (2 * j)) > !c then begin
      v := a.(4 + (2 * j));
      c := a.(5 + (2 * j))
    end
  done;
  (!v, !c)

(* Senders are distinct, so a strict majority is the unique top. *)
let majority_value t ~phase ~n =
  let v, c = top t phase in
  if 2 * c > n then Some v else None

let plurality t ~phase =
  let v, c = top t phase in
  if c > 0 then Some v else None

let ratified t ~phase ~above =
  let a = read t phase and base = ratifies t in
  let best = ref None in
  for j = 0 to a.(3) - 1 do
    let v = a.(base + (2 * j)) and commits = a.(base + (2 * j) + 1) > above in
    match !best with
    | Some (w, true) when (not commits) || w < v -> ()
    | Some (w, false) when (not commits) && w < v -> ()
    | _ -> best := Some (v, commits)
  done;
  !best

let forget_below t ~phase = Consensus.Phases.forget_below t.phases phase
