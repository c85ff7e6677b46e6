(* One-shot binary consensus as a service: each backend wraps one of the
   repository's algorithms in a fresh nested sub-simulation.  The nested
   run is fault-free — RSM-level crashes are expressed by shrinking the
   input array, not by crashing nested processors — and reports how much
   virtual time it consumed, which the log charges to the slot.  Once
   every node has returned (Omega: decided) the result is fixed, so the
   Raft, Ben-Or and Omega runs settle their engine there instead of
   simulating the deliveries still in flight; decision and duration
   are the full run's (DESIGN §19). *)

module type S = sig
  val name : string
  val decide : seed:int64 -> inputs:bool array -> bool * int
end

type t = (module S)

let majority inputs =
  let ones = Array.fold_left (fun a b -> if b then a + 1 else a) 0 inputs in
  2 * ones > Array.length inputs

module Ben_or_backend = struct
  let name = "ben-or"

  let decide ~seed ~inputs =
    let n = Array.length inputs in
    if n = 1 then (inputs.(0), 0)
    else
      let cfg = { (Ben_or.Runner.default_config ~n ~inputs) with seed } in
      let r = Ben_or.Runner.run ~settle:true cfg in
      let v =
        match r.Ben_or.Runner.decisions with
        | (_, v, _) :: _ -> v
        | [] ->
            (* 500-round cap hit without a decision — astronomically
               unlikely at these sizes; any deterministic rule is safe
               because the slot decision is computed once and shared. *)
            majority inputs
      in
      (v, r.Ben_or.Runner.virtual_time)
end

module Phase_king_backend = struct
  let name = "phase-king"

  (* The synchronous protocol has no virtual clock of its own; charge a
     full latency bound (10, the default Uniform upper bound elsewhere)
     per lock-step round. *)
  let round_duration = 10

  let decide ~seed ~inputs =
    let n = Array.length inputs in
    if n = 1 then (inputs.(0), 0)
    else
      let int_inputs = Array.map (fun b -> if b then 1 else 0) inputs in
      let cfg =
        {
          (Phase_king.Runner.default_config ~n ~inputs:int_inputs) with
          seed;
          byzantine = [];
          strategy = Netsim.Byzantine.silent;
        }
      in
      let r = Phase_king.Runner.run cfg in
      let v =
        match r.Phase_king.Runner.final_decisions with
        | (_, v) :: _ -> v = 1
        | [] -> majority inputs
      in
      (v, r.Phase_king.Runner.sync_rounds * round_duration)
end

module Raft_backend = struct
  let name = "raft"

  let decide ~seed ~inputs =
    let n = Array.length inputs in
    if n = 1 then (inputs.(0), 0)
    else begin
      let eng = Dsim.Engine.create ~seed ~trace_capacity:256 () in
      let net = Netsim.Async_net.create eng ~n ~retain_inbox:false () in
      let faults = (n - 1) / 2 in
      let decision = ref None in
      let returned = ref 0 in
      for i = 0 to n - 1 do
        ignore
          (Dsim.Engine.spawn eng (fun _ectx ->
               let input = if inputs.(i) then 1 else 0 in
               let ctx = Raft.Decentralized.make_ctx ~net ~me:i ~faults ~input in
               let v, _round =
                 Raft.Decentralized.Consensus_decentralized.consensus
                   ~max_rounds:500 ctx input
               in
               if !decision = None then decision := Some v;
               (* the rest is in-flight deliveries nobody reads *)
               incr returned;
               if !returned = n then Dsim.Engine.settle eng)
            : Dsim.Engine.pid)
      done;
      ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
      let v = match !decision with Some v -> v = 1 | None -> majority inputs in
      (v, Dsim.Engine.now eng)
    end
end

module Omega_backend = struct
  let name = "omega"

  (* Indulgent Paxos driven by the Ω failure detector (lib/detect):
     the nested instance runs fault-free with an honest detector, so
     node 0 is leader from the first poll and decides in two round
     trips.  Positioned as the paper's fourth decomposition — the
     reconciliator as a failure detector (DESIGN §14). *)
  let decide ~seed ~inputs = Detect.Runner.decide ~seed ~inputs
end

let ben_or : t = (module Ben_or_backend)
let phase_king : t = (module Phase_king_backend)
let raft : t = (module Raft_backend)
let omega : t = (module Omega_backend)
let all = [ ben_or; phase_king; raft; omega ]
let name (module B : S) = B.name
let of_string s = List.find_opt (fun (module B : S) -> B.name = s) all
