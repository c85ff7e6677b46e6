(* Quickstart: run one consensus with the paper's generic template.

   Eight processors with split inputs run Ben-Or's algorithm decomposed
   into a vacillate-adopt-commit object and a coin-flip reconciliator
   (paper Algorithms 1, 5 and 6) over a simulated asynchronous network,
   while a monitor checks every object guarantee on the fly.

     dune exec examples/quickstart.exe *)

module Engine = Dsim.Engine
module Net = Netsim.Async_net
module Monitor = Consensus.Monitor.Make (Consensus.Objects.Bool_value)

let () =
  let n = 8 in
  let eng = Engine.create ~seed:2026L () in
  let net = Net.create eng ~n ~retain_inbox:false () in
  let monitor = Monitor.create () in

  (* Spawn one simulated processor per node.  Each builds its protocol
     context and calls the template-produced [consensus]. *)
  for i = 0 to n - 1 do
    let input = i mod 2 = 0 in
    Monitor.record_initial monitor ~pid:i input;
    ignore
      (Engine.spawn eng ~name:(fun () -> Printf.sprintf "proc-%d" i) (fun ectx ->
           let ctx =
             Ben_or.Protocol.make_ctx ~net ~me:i ~faults:3 ~rng:ectx.Engine.rng ()
           in
           let observer = Monitor.observer monitor ~pid:i in
           let value, round =
             Ben_or.Protocol.Consensus_decomposed.consensus ~observer ctx input
           in
           Format.printf "processor %d decided %b in round %d@." i value round)
      : Engine.pid)
  done;

  (* Crash two processors mid-run: Ben-Or tolerates t < n/2. *)
  Engine.schedule eng ~delay:15 (fun () ->
      Net.crash net 0;
      Engine.kill eng 0);
  Engine.schedule eng ~delay:40 (fun () ->
      Net.crash net 5;
      Engine.kill eng 5);

  (match Engine.run eng with
  | Engine.Quiescent -> ()
  | outcome ->
      Format.printf "unexpected outcome: %s@."
        (match outcome with
        | Engine.Deadlock _ -> "deadlock"
        | Engine.Time_limit -> "time limit"
        | Engine.Event_limit -> "event limit"
        | Engine.Quiescent -> assert false));

  Format.printf "virtual time: %d, messages sent: %d@." (Engine.now eng)
    (Net.messages_sent net);
  match Monitor.check_vac monitor @ Monitor.check_consensus monitor with
  | [] -> Format.printf "every VAC and consensus guarantee held@."
  | violations ->
      List.iter
        (fun v -> Format.printf "VIOLATION: %a@." Consensus.Monitor.pp_violation v)
        violations;
      exit 1
