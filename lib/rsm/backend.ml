(* One-shot binary consensus as a service: each backend is its protocol's
   node code, placed on a network in a nested sub-simulation on the
   domain's spare engine, reset to the state a fresh one starts in.  The
   nested run is fault-free — RSM-level crashes are expressed by
   shrinking the input array, not by crashing nested processors — and
   reports how much virtual time it consumed, which the group charges
   to the slot.  Once every node has reported its decision the result is
   fixed, so the run settles its engine there instead of simulating the
   deliveries still in flight; decision and charge are the full run's
   (DESIGN §19). *)

module Engine = Dsim.Engine
module Async_net = Netsim.Async_net

module type S = sig
  val name : string
  val decide : seed:int64 -> inputs:bool array -> bool * int
end

type t = (module S)

(* The domain's spare quiet engine.  A run takes it and puts it back
   only once it has ended normally, so the slot is empty while a run
   uses it and after a run raised; a run that finds it empty makes a
   fresh engine.  [Engine.reset] makes a reused engine run exactly as a
   fresh one would, and keeps the storage earlier runs grew. *)
let spare : Engine.t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let take_engine ~seed =
  match Domain.DLS.get spare with
  | Some eng ->
      Domain.DLS.set spare None;
      Engine.reset eng ~seed;
      eng
  | None -> Engine.create ~seed ~tracing:false ()

(* The one nested run.  [start] builds the protocol's network and nodes
   on the engine; every node calls [report] once, with its decision, and
   [start] returns what the run charges, read once the engine stops.
   The n-th report settles the engine. *)
let nested name start : t =
  (module struct
    let name = name

    let decide ~seed ~inputs =
      match Array.length inputs with
      | 0 -> invalid_arg "Rsm.Backend.decide: empty inputs"
      | 1 -> (inputs.(0), 0)
      | n -> (
          let eng = take_engine ~seed in
          let first = ref None and reports = ref 0 and split = ref false in
          let report v =
            (match !first with
            | None -> first := Some v
            | Some w -> if not (Bool.equal v w) then split := true);
            incr reports;
            if !reports = n then Engine.settle eng
          in
          let charge = start eng ~inputs ~report in
          ignore (Engine.run eng : Engine.outcome);
          let fail what = failwith (Printf.sprintf "Rsm.Backend.%s: %s" name what) in
          if !split then fail "nested nodes decided differently";
          match !first with
          | Some v ->
              let decided = (v, charge ()) in
              Domain.DLS.set spare (Some eng);
              decided
          | None -> fail "nested instance did not decide")
  end)

(* One fiber per node, each reporting what [node] returns. *)
let spawn_nodes eng ~inputs ~report node =
  for me = 0 to Array.length inputs - 1 do
    ignore (Engine.spawn eng (fun ctx -> report (node ~me ctx)) : Engine.pid)
  done

let ben_or =
  nested "ben-or" (fun eng ~inputs ~report ->
      let n = Array.length inputs in
      let net = Async_net.create eng ~n ~retain_inbox:false () in
      spawn_nodes eng ~inputs ~report (fun ~me ctx ->
          let faults = (n - 1) / 2 in
          let pctx = Ben_or.Protocol.make_ctx ~net ~me ~faults ~rng:ctx.Engine.rng () in
          fst
            (Ben_or.Protocol.Consensus_decomposed.consensus ~max_rounds:500 pctx
               inputs.(me)));
      fun () -> Engine.now eng)

(* The synchronous protocol has no virtual clock of its own; charge a
   full latency bound (10, the default Uniform upper bound elsewhere)
   per lock-step round. *)
let phase_king =
  nested "phase-king" (fun eng ~inputs ~report ->
      let n = Array.length inputs in
      let net =
        Netsim.Sync_net.create eng ~n ~byzantine:[] ~strategy:Netsim.Byzantine.silent
      in
      spawn_nodes eng ~inputs ~report (fun ~me _ ->
          let ctx = Phase_king.Protocol.make_ctx ~net ~me ~faults:((n - 1) / 3) in
          let r =
            Phase_king.Protocol.Consensus_decomposed.run ctx (Bool.to_int inputs.(me))
          in
          r.Consensus.Template.final_preference = 1);
      fun () -> Netsim.Sync_net.current_round net * 10)

let raft =
  nested "raft" (fun eng ~inputs ~report ->
      let n = Array.length inputs in
      let net = Async_net.create eng ~n ~retain_inbox:false () in
      spawn_nodes eng ~inputs ~report (fun ~me _ ->
          let input = Bool.to_int inputs.(me) in
          let ctx = Raft.Decentralized.make_ctx ~net ~me ~faults:((n - 1) / 2) ~input in
          let v, _round =
            Raft.Decentralized.Consensus_decentralized.consensus ~max_rounds:500 ctx input
          in
          v = 1);
      fun () -> Engine.now eng)

(* Single-decree Paxos with an Ω-elected coordinator (lib/detect).  With
   an honest detector and no faults, node 0 leads from the first poll
   and decides in two round trips; tight detector parameters keep the
   rest of the run short.  It charges the last decision's time: the
   detector's heartbeats would run on past it. *)
let omega =
  nested "omega" (fun eng ~inputs ~report ->
      let net = Async_net.create eng ~n:(Array.length inputs) ~retain_inbox:false () in
      let last = ref 0 in
      let (_ : Detect.Runner.nodes) =
        Detect.Runner.start ~net
          ~params:{ Detect.Timeout.default with period = 40; initial = 120 }
          ~mutant:Detect.Oracle.Honest ~inputs
          ~on_decide:(fun _ v ->
            last := Engine.now eng;
            report v)
      in
      fun () -> !last)

(* Each binary instance of a slot gets its own seed. *)
let mix seed ~slot ~attempt =
  Int64.add (Int64.mul seed 1_000_003L) (Int64.of_int ((slot * 7919) + attempt + 1))

let decide_slot (module B : S) ~seed ~slot ~opener proposals =
  let proposers = List.sort compare (List.map fst proposals) in
  let brought p = List.assoc p proposals <> [] in
  (* A replica that brought commands prefers itself; an empty-handed
     joiner backs whoever opened the slot. *)
  let prefs = List.map (fun p -> (p, if brought p then p else opener)) proposers in
  let candidates = List.sort_uniq compare (List.map snd prefs) in
  let attempt = ref 0 and duration = ref 0 in
  let run_instance k ~unanimous =
    let inputs =
      Array.of_list (List.map (fun (_, pref) -> unanimous || pref = k) prefs)
    in
    let b, d = B.decide ~seed:(mix seed ~slot ~attempt:!attempt) ~inputs in
    incr attempt;
    duration := !duration + d;
    b
  in
  let winner =
    match List.find_opt (fun k -> run_instance k ~unanimous:false) candidates with
    | Some k -> k
    | None -> (
        (* every candidate instance decided false: retry pass with
           unanimous support for the first non-empty proposer, which the
           backend must ratify by validity *)
        match List.find_opt brought proposers with
        | Some fb ->
            ignore (run_instance fb ~unanimous:true : bool);
            fb
        | None -> opener (* all batches empty: nothing to order *))
  in
  (winner, !attempt, !duration)

let all = [ ben_or; phase_king; raft; omega ]
let name (module B : S) = B.name
let of_string s = List.find_opt (fun (module B : S) -> B.name = s) all
