module Engine = Dsim.Engine
module Sync_net = Netsim.Sync_net
module Int_monitor = Consensus.Monitor.Make (Consensus.Objects.Int_value)

type mode = Decomposed | Monolithic
type algorithm = King | Queen

type config = {
  n : int;
  faults : int;
  byzantine : int list;
  strategy : int Sync_net.strategy;
  seed : int64;
  inputs : int array;
  mode : mode;
  algorithm : algorithm;
  oracle : Dsim.Engine.oracle option;
}

let default_config ~n ~inputs =
  let faults = (n - 1) / 3 in
  {
    n;
    faults;
    byzantine = List.init faults Fun.id;
    strategy = Strategies.camp_splitter;
    seed = 1L;
    inputs;
    mode = Decomposed;
    algorithm = King;
    oracle = None;
  }

let default_queen_config ~n ~inputs =
  let faults = (n - 1) / 4 in
  {
    (default_config ~n ~inputs) with
    faults;
    byzantine = List.init faults Fun.id;
    algorithm = Queen;
  }

type report = {
  final_decisions : (int * int) list;
  first_commits : (int * int * int) list;
  template_rounds : int;
  sync_rounds : int;
  messages : int;
  engine_outcome : Engine.outcome;
  process_failures : (int * exn) list;
  violations : Consensus.Monitor.violation list;
  first_commit_agreement_broken : bool;
}

let run config =
  if Array.length config.inputs <> config.n then
    invalid_arg "Phase_king.Runner.run: inputs length must equal n";
  (match config.algorithm with
  | King ->
      if 3 * config.faults >= config.n then
        invalid_arg "Phase_king.Runner.run: requires 3t < n"
  | Queen ->
      if 4 * config.faults >= config.n then
        invalid_arg "Phase_king.Runner.run: requires 4t < n");
  if List.length config.byzantine > config.faults then
    invalid_arg "Phase_king.Runner.run: more Byzantine ids than t";
  let eng = Engine.create ~seed:config.seed () in
  Engine.set_oracle eng config.oracle;
  let net =
    Sync_net.create eng ~n:config.n ~byzantine:config.byzantine
      ~strategy:config.strategy
  in
  let monitor = Int_monitor.create () in
  let finals = ref [] in
  let commits = ref [] in
  let correct =
    List.filter (fun i -> not (Sync_net.is_byzantine net i))
      (List.init config.n Fun.id)
  in
  let pids = Hashtbl.create 8 in
  List.iter
    (fun i ->
      let input = config.inputs.(i) in
      if input <> 0 && input <> 1 then
        invalid_arg "Phase_king.Runner.run: inputs must be binary";
      Int_monitor.record_initial monitor ~pid:i input;
      let body _ectx =
        let pctx =
          match config.algorithm with
          | King -> Protocol.make_ctx ~net ~me:i ~faults:config.faults
          | Queen -> Queen.make_ctx ~net ~me:i ~faults:config.faults
        in
        let observer = Int_monitor.observer monitor ~pid:i in
        let result =
          match (config.algorithm, config.mode) with
          | King, Decomposed -> Protocol.Consensus_decomposed.run ~observer pctx input
          | King, Monolithic -> Protocol.monolithic_run ~observer pctx input
          | Queen, Decomposed -> Queen.Consensus_decomposed.run ~observer pctx input
          | Queen, Monolithic -> Queen.monolithic_run ~observer pctx input
        in
        finals := (i, result.Consensus.Template.final_preference) :: !finals;
        match result.Consensus.Template.first_commit with
        | Some (v, m) -> commits := (i, v, m) :: !commits
        | None -> ()
      in
      Hashtbl.replace pids i
        (Engine.spawn eng ~name:(fun () -> Printf.sprintf "pk-%d" i) body))
    correct;
  let engine_outcome = Engine.run eng in
  let process_failures =
    List.filter_map
      (fun i ->
        match Engine.process_failed eng (Hashtbl.find pids i) with
        | Some exn -> Some (i, exn)
        | None -> None)
      correct
  in
  let violations =
    Int_monitor.check_ac ~validity:false monitor
    @
    (* Agreement + validity over the final decisions. *)
    let final_list = !finals in
    let agreement =
      match final_list with
      | [] -> []
      | (p0, v0) :: rest ->
          List.filter_map
            (fun (p, v) ->
              if v = v0 then None
              else
                Some
                  {
                    Consensus.Monitor.round = None;
                    property = "agreement";
                    message =
                      Printf.sprintf "p%d decided %d but p%d decided %d" p0 v0 p v;
                  })
            rest
    in
    let validity =
      let inputs = List.map (fun i -> config.inputs.(i)) correct in
      List.filter_map
        (fun (p, v) ->
          if List.mem v inputs then None
          else
            Some
              {
                Consensus.Monitor.round = None;
                property = "consensus-validity";
                message =
                  Printf.sprintf "p%d decided %d, not a correct processor's input"
                    p v;
              })
        final_list
    in
    agreement @ validity
  in
  let first_commit_agreement_broken =
    match !commits with
    | [] -> false
    | (_, v0, _) :: rest -> List.exists (fun (_, v, _) -> v <> v0) rest
  in
  let template_rounds = config.faults + 1 in
  let correct_count = List.length correct in
  {
    final_decisions = List.rev !finals;
    first_commits = List.rev !commits;
    template_rounds;
    sync_rounds = Sync_net.current_round net;
    messages =
      (template_rounds
      *
      match config.algorithm with
      | King -> Protocol.messages_per_template_round ~n:config.n ~correct:correct_count
      | Queen -> Queen.messages_per_template_round ~n:config.n ~correct:correct_count);
    engine_outcome;
    process_failures;
    violations;
    first_commit_agreement_broken;
  }
