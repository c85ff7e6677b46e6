(* The same replicated-KV workload over every consensus backend.

   The point of the RSM subsystem is that the state-machine layer is
   indifferent to which one-shot consensus protocol decides each log
   slot — Ben-Or's randomized protocol, Phase-King, the paper's
   decomposed Raft template, or Paxos led by the Ω failure detector all
   slot in behind the same first-class module interface.  This demo runs
   one fixed workload (with a replica crash) over every backend in
   [Rsm.Backend.all] and prints the resulting scorecards: same total
   order guarantees, different latency profiles.

     dune exec examples/rsm_demo.exe *)

let () =
  let backends = List.length Rsm.Backend.all in
  Format.printf "one workload, %d consensus backends (n=5, 1 crash)@.@." backends;
  let summaries =
    List.map
      (fun backend ->
        let _r, s =
          Workload.Rsm_load.run_one ~n:5 ~clients:6 ~commands:4 ~batch:8
            ~crashes:1 ~seed:7 ~backend ()
        in
        Format.printf
          "%-10s  %2d/%2d acked  %2d slots  %3d instances  t=%-6d  %s@."
          s.Workload.Rsm_load.backend_name s.Workload.Rsm_load.acked
          s.Workload.Rsm_load.commands s.Workload.Rsm_load.slots
          s.Workload.Rsm_load.instances s.Workload.Rsm_load.virtual_time
          (if s.Workload.Rsm_load.ok then "order certified" else "VIOLATIONS");
        s)
      Rsm.Backend.all
  in
  Format.printf "@.";
  if List.for_all (fun s -> s.Workload.Rsm_load.ok) summaries then
    Format.printf "all %d backends produced a certified total order@." backends
  else begin
    Format.printf "some backend violated the total-order checker@.";
    exit 1
  end
