type phase_tally = {
  seen1 : bool array;
  seen2 : bool array;
  mutable proposers : int;
  mutable arrivals_rev : (int * int) list;  (* (src, value), newest first *)
  mutable proposal_counts : (int * int) list;  (* (value, senders); few values *)
  mutable seconds : int;
  mutable ratify_counts : (int * int) list;
}

type t = { changed : Dsim.Engine.queue; phases : phase_tally Consensus.Phases.t }

let fresh n () =
  {
    seen1 = Array.make n false;
    seen2 = Array.make n false;
    proposers = 0;
    arrivals_rev = [];
    proposal_counts = [];
    seconds = 0;
    ratify_counts = [];
  }

(* what every absent phase reads as; never written *)
let empty = fresh 0 ()
let read t phase = Consensus.Phases.get t.phases phase
let phase_tally t phase = Consensus.Phases.obtain t.phases phase

let bump counts v =
  match List.assoc_opt v counts with
  | Some c -> (v, c + 1) :: List.remove_assoc v counts
  | None -> (v, 1) :: counts

let ingest t env =
  let src = env.Netsim.Async_net.src in
  match env.Netsim.Async_net.payload with
  | Decentralized_msg.Propose { phase; value } ->
      let p = phase_tally t phase in
      if not p.seen1.(src) then begin
        p.seen1.(src) <- true;
        p.proposers <- p.proposers + 1;
        Dsim.Engine.signal t.changed;
        p.arrivals_rev <- (src, value) :: p.arrivals_rev;
        p.proposal_counts <- bump p.proposal_counts value
      end
  | Decentralized_msg.Second { phase; ratify } ->
      let p = phase_tally t phase in
      if not p.seen2.(src) then begin
        p.seen2.(src) <- true;
        p.seconds <- p.seconds + 1;
        Dsim.Engine.signal t.changed;
        match ratify with
        | Some v -> p.ratify_counts <- bump p.ratify_counts v
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

let proposals_in_arrival_order t ~phase = List.rev (read t phase).arrivals_rev

(* Senders are distinct, so at most one value can hold a strict majority. *)
let majority_value t ~phase ~n =
  List.find_map
    (fun (v, c) -> if 2 * c > n then Some v else None)
    (read t phase).proposal_counts

let second_senders t ~phase = (read t phase).seconds

let ratifies_for t ~phase v =
  Option.value ~default:0 (List.assoc_opt v (read t phase).ratify_counts)

let ratified_values t ~phase =
  List.sort_uniq compare (List.map fst (read t phase).ratify_counts)

let forget_below t ~phase = Consensus.Phases.forget_below t.phases phase
