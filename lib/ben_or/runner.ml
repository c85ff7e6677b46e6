module Engine = Dsim.Engine
module Async_net = Netsim.Async_net
module Bool_monitor = Consensus.Monitor.Make (Consensus.Objects.Bool_value)

type mode = Decomposed | Monolithic

type config = {
  n : int;
  faults : int;
  seed : int64;
  latency : Netsim.Latency.t;
  inputs : bool array;
  crash_schedule : (int * int) list;
  policy : Messages.t Async_net.envelope -> Async_net.policy_verdict;
  mode : mode;
  max_rounds : int;
  common_coin : float option;
  oracle : Dsim.Engine.oracle option;
}

let default_config ~n ~inputs =
  {
    n;
    faults = (n - 1) / 2;
    seed = 1L;
    latency = Netsim.Latency.Uniform (1, 10);
    inputs;
    crash_schedule = [];
    policy = (fun _ -> Async_net.Deliver);
    mode = Decomposed;
    max_rounds = 500;
    common_coin = None;
    oracle = None;
  }

type report = {
  decisions : (int * bool * int) list;
  engine_outcome : Engine.outcome;
  virtual_time : int;
  messages_sent : int;
  messages_delivered : int;
  max_decision_round : int;
  crashed : int list;
  process_failures : (int * exn) list;
  violations : Consensus.Monitor.violation list;
  adopt_overruled : bool;
  trace : Dsim.Trace.t;
}

let run config =
  if Array.length config.inputs <> config.n then
    invalid_arg "Ben_or.Runner.run: inputs length must equal n";
  if 2 * config.faults >= config.n then
    invalid_arg "Ben_or.Runner.run: requires 2t < n";
  let eng = Engine.create ~seed:config.seed ~trace_capacity:10_000 () in
  Engine.set_oracle eng config.oracle;
  let net =
    Async_net.create eng ~n:config.n ~latency:config.latency ~policy:config.policy
      ~retain_inbox:false ()
  in
  let monitor = Bool_monitor.create () in
  let decisions = ref [] in
  let coin =
    Option.map
      (fun agreement ->
        Common_coin.create ~rng:(Dsim.Rng.split (Engine.rng eng)) ~agreement)
      config.common_coin
  in
  let pids = Array.make config.n (-1) in
  for i = 0 to config.n - 1 do
    Bool_monitor.record_initial monitor ~pid:i config.inputs.(i);
    let body ctx =
      let pctx =
        Protocol.make_ctx ?coin ~net ~me:i ~faults:config.faults
          ~rng:ctx.Engine.rng ()
      in
      let base_observer = Bool_monitor.observer monitor ~pid:i in
      let observer =
        {
          base_observer with
          Consensus.Template.on_decide =
            (fun ~round v ->
              base_observer.Consensus.Template.on_decide ~round v;
              decisions := (i, v, round) :: !decisions);
        }
      in
      let consensus =
        match config.mode with
        | Decomposed -> Protocol.Consensus_decomposed.consensus
        | Monolithic -> Protocol.monolithic_consensus
      in
      ignore
        (consensus ~max_rounds:config.max_rounds ~observer pctx config.inputs.(i)
          : bool * int)
    in
    pids.(i) <- Engine.spawn eng ~name:(fun () -> Printf.sprintf "benor-%d" i) body
  done;
  let crashed = ref [] in
  List.iter
    (fun (time, victim) ->
      if victim < 0 || victim >= config.n then
        invalid_arg "Ben_or.Runner.run: crash_schedule pid out of range";
      Engine.schedule eng ~delay:time (fun () ->
          if Engine.alive eng pids.(victim) then begin
            crashed := victim :: !crashed;
            Async_net.crash net victim;
            Engine.kill eng pids.(victim)
          end))
    config.crash_schedule;
  let engine_outcome = Engine.run eng in
  let process_failures =
    List.filter_map
      (fun i ->
        match Engine.process_failed eng pids.(i) with
        | Some exn -> Some (i, exn)
        | None -> None)
      (List.init config.n Fun.id)
  in
  let violations =
    Bool_monitor.check_vac monitor @ Bool_monitor.check_consensus monitor
  in
  let decisions = List.rev !decisions in
  let adopt_overruled =
    match decisions with
    | [] -> false
    | (_, final, _) :: _ ->
        List.exists
          (fun round ->
            List.exists
              (fun (_pid, out) ->
                match out with
                | Consensus.Types.Adopt u -> not (Bool.equal u final)
                | Consensus.Types.Vacillate _ | Consensus.Types.Commit _ -> false)
              (Bool_monitor.outputs monitor ~round))
          (Bool_monitor.rounds monitor)
  in
  {
    decisions;
    engine_outcome;
    virtual_time = Engine.now eng;
    messages_sent = Async_net.messages_sent net;
    messages_delivered = Async_net.messages_delivered net;
    max_decision_round =
      List.fold_left (fun acc (_, _, r) -> max acc r) 0 decisions;
    crashed = List.rev !crashed;
    process_failures;
    violations;
    adopt_overruled;
    trace = Engine.trace eng;
  }

let all_decided_same report ~expected_live =
  List.length report.decisions = expected_live
  &&
  match report.decisions with
  | [] -> expected_live = 0
  | (_, v0, _) :: rest -> List.for_all (fun (_, v, _) -> Bool.equal v v0) rest
