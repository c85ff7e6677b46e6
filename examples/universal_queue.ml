(* The universal construction, end to end, at a FIFO queue.

   One sequential specification ([Obj.Queue]: ~40 lines of pure code)
   is lifted onto both universes the paper bridges:

   - the replicated consensus log ([Obj.Replicated] over [Rsm]): five
     replicas totally order enqueues/dequeues through Ben-Or consensus,
     survive a crash, and the recorded concurrent history is certified
     linearizable by the generic Wing–Gong checker;
   - the shared-memory lock-free log ([Obj.Smem], Herlihy's
     construction over registers and consensus cells): two processes
     race appends under random interleavings, honest and with consensus
     replaced by a last-write-wins register write — the same checker
     certifies the former and convicts the latter.

     dune exec examples/universal_queue.exe *)

module Q = Obj.Queue
module Smq = Obj.Smem.Make (Obj.Queue)

let () =
  Format.printf "— replicated: queue over the consensus log (n=5, 1 crash)@.";
  let s =
    Workload.Obj_load.run ~n:5 ~clients:3 ~commands:6 ~crashes:1 ~seed:7
      ~backend:Rsm.Backend.ben_or (Obj.Registry.find "queue")
  in
  Format.printf
    "  %d/%d acked over %d slots, %d Wing–Gong states searched: %s@.@."
    s.Workload.Obj_load.acked s.Workload.Obj_load.commands
    s.Workload.Obj_load.slots s.Workload.Obj_load.wg_states
    (if s.Workload.Obj_load.ok then "linearizable" else "VIOLATIONS");

  Format.printf "— shared memory: Herlihy's lock-free log (n=2, sampled)@.";
  let ops = [| [ Q.Enq "a"; Q.Deq ]; [ Q.Enq "b"; Q.Deq ] |] in
  let honest = Smq.check_sampled ~ops ~samples:50 ~seed:9L () in
  Format.printf "  honest:  %d interleavings, %d violations@." honest.Smq.samples
    (List.length honest.Smq.violations);
  let broken = Smq.check_sampled ~broken:true ~ops ~samples:50 ~seed:9L () in
  Format.printf "  broken:  %d interleavings, e.g. %s@.@." broken.Smq.samples
    (match broken.Smq.violations with v :: _ -> v | [] -> "(not caught)");

  let ok =
    s.Workload.Obj_load.ok && honest.Smq.violations = []
    && broken.Smq.violations <> []
  in
  Format.printf
    (if ok then
       "one sequential spec, two universes, one checker: certified@."
     else "unexpected verdicts@.");
  if not ok then exit 1
