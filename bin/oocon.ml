(* oocon — object-oriented consensus CLI.

   Run any of the repository's consensus algorithms under simulated
   adversity, inspect traces, or regenerate the experiment tables. *)

open Cmdliner

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let show_trace_arg =
  let doc = "Dump the last N structured trace events after the run." in
  Arg.(value & opt int 0 & info [ "show-trace" ] ~docv:"N" ~doc)

let dump_trace ~limit trace =
  if limit > 0 then begin
    let tail = Dsim.Trace.last trace limit in
    Format.printf "@.--- trace (last %d of %d events) ---@." (List.length tail)
      (Dsim.Trace.length trace);
    List.iter (fun ev -> Format.printf "%a@." Dsim.Trace.pp_event ev) tail
  end

(* A bad value exits 2 with one line, before anything runs. *)
let require ok msg =
  if not ok then begin
    Format.eprintf "%s@." msg;
    exit 2
  end

(* A count flag that must not be negative.  The check runs where the
   flag is parsed, so no subcommand using the flag can miss it. *)
let count_arg ?(aliases = []) ~flag ~docv ~doc default =
  let arg =
    Arg.value (Arg.opt Arg.int default (Arg.info (flag :: aliases) ~docv ~doc))
  in
  let check k =
    require (k >= 0) (flag ^ " must be >= 0");
    k
  in
  Term.(const check $ arg)

(* Every RSM backend by name, for the --backend flags. *)
let backend_choices = List.map (fun b -> (Rsm.Backend.name b, b)) Rsm.Backend.all

let n_arg default =
  let doc = "Number of processors." in
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let backend_arg =
  let doc = "Consensus backend deciding each log slot: ben-or, phase-king, raft, omega." in
  Arg.(
    value
    & opt (enum backend_choices) Rsm.Backend.ben_or
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let clients_arg ?(doc = "Closed-loop clients driving the store.") default =
  count_arg ~flag:"clients" ~docv:"K" ~doc default

let commands_arg ?(doc = "Commands per client.") default =
  count_arg ~flag:"commands" ~docv:"M" ~doc default

let batch_arg default =
  let doc = "Max commands batched into one consensus slot." in
  Arg.(value & opt int default & info [ "batch" ] ~docv:"B" ~doc)

let crashes_arg =
  let doc = "Replicas to crash-stop (staggered early in the run)." in
  Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"F" ~doc)

let horizon_arg =
  let doc = "Virtual-time window fault actions are placed in." in
  Arg.(value & opt int 800 & info [ "horizon" ] ~docv:"H" ~doc)

let jobs_arg =
  let doc =
    "Worker domains to fan independent runs over (1 = sequential; 0 = one \
     per core).  Results are identical at every job count."
  in
  count_arg ~flag:"jobs" ~aliases:[ "j" ] ~docv:"JOBS" ~doc 1

let resolve_jobs jobs = if jobs = 0 then Exec.Pool.cores () else jobs

let require_nodes n = require (n >= 1) "nodes must be >= 1"
let require_batch batch = require (batch >= 1) "batch must be >= 1"

(* Nemesis.Gen.generate's own bound on the window it places actions in. *)
let require_horizon horizon = require (horizon >= 10) "horizon must be >= 10"

let require_crashes ~n crashes =
  require (crashes >= 0 && crashes < n) "need at least one live replica (0 <= crashes < n)"

let require_restart_after =
  Option.iter (fun d -> require (d >= 1) "restart-after must be >= 1")

let backends_arg ~doc =
  Arg.(
    value
    & opt
        (enum
           (List.map (fun (n, b) -> (n, [ b ])) backend_choices
           @ [ ("all", Rsm.Backend.all) ]))
        [ Rsm.Backend.ben_or ]
    & info [ "backend" ] ~docv:"BACKEND" ~doc)

let expect_violation_arg =
  let doc =
    "Invert the exit code: succeed only when a violation IS found (mutant \
     checks in CI)."
  in
  Arg.(value & flag & info [ "expect-violation" ] ~doc)

(* Exit 1 on a violation; under --expect-violation, exit 0 only on one. *)
let finish ~expect_violation ~violations_found =
  if expect_violation then
    if violations_found then begin
      Format.printf "expected violation found@.";
      exit 0
    end
    else begin
      Format.eprintf "no violation found but one was expected@.";
      exit 1
    end
  else if violations_found then exit 1

let report_out_arg what =
  let doc =
    Printf.sprintf
      "Write the %s, minus timing figures, to this file — byte-identical \
       across job counts, so two runs can be diffed."
      what
  in
  Arg.(value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)

let write_stable_report file pp report =
  Out_channel.with_open_text file (fun oc ->
      let ppf = Format.formatter_of_out_channel oc in
      pp ppf report;
      Format.pp_print_flush ppf ());
  Format.printf "stable report written to %s@." file

(* A plan file, parsed and validated for [n] nodes; exit 2 if it is not. *)
let read_plan ~n file =
  let text = In_channel.with_open_text file In_channel.input_all in
  let plan =
    try Nemesis.Plan.of_string text
    with Nemesis.Plan.Parse_error msg ->
      Format.eprintf "cannot parse plan %s: %s@." file msg;
      exit 2
  in
  match Nemesis.Plan.validate ~n plan with
  | [] -> plan
  | problems ->
      Format.eprintf "ill-formed plan %s:@." file;
      List.iter (Format.eprintf "  %s@.") problems;
      exit 2

(* The flags every fault campaign shares; only the --plans default and
   its wording differ. *)
type campaign_flags = { plans : int; jobs : int; report_out : string option }

let campaign_flags ~plans ~doc =
  let plans_arg = count_arg ~flag:"plans" ~docv:"P" ~doc plans in
  Term.(
    const (fun plans jobs report_out -> { plans; jobs; report_out })
    $ plans_arg $ jobs_arg $ report_out_arg "campaign report")

(* Sweep a campaign, print its report and write the stable one.  With
   [~progress:(Some dot)], print one character per finished run. *)
let run_campaign (type c o)
    (module C : Nemesis.Sweep.S with type config = c and type outcome = o)
    ~progress flags (cfg : c) =
  let on_outcome =
    Option.map
      (fun dot o ->
        print_char (dot o);
        flush stdout)
      progress
  in
  let report = C.run ~jobs:(resolve_jobs flags.jobs) ?on_outcome cfg in
  if progress <> None then print_newline ();
  Format.printf "%a" C.pp_report report;
  Option.iter
    (fun file -> write_stable_report file C.pp_report_stable report)
    flags.report_out;
  report

let split_inputs n = Array.init n (fun i -> i mod 2 = 0)

(* ------------------------------------------------------------- ben-or -- *)

let benor_cmd =
  let mode_arg =
    let doc = "Implementation: $(b,decomposed) (VAC+reconciliator template) or $(b,monolithic)." in
    Arg.(
      value
      & opt (enum [ ("decomposed", Ben_or.Runner.Decomposed); ("monolithic", Ben_or.Runner.Monolithic) ])
          Ben_or.Runner.Decomposed
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let crashes_arg =
    let doc = "Number of processors to crash (staggered early in the run)." in
    Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"K" ~doc)
  in
  let unanimous_arg =
    let doc = "All processors start with the same input (default: even split)." in
    Arg.(value & flag & info [ "unanimous" ] ~doc)
  in
  let coin_arg =
    let doc =
      "Use a weak common coin with this per-round agreement probability as the \
       reconciliator (default: the paper's private coin flips)."
    in
    Arg.(value & opt (some float) None & info [ "common-coin" ] ~docv:"DELTA" ~doc)
  in
  let run n seed mode crashes unanimous common_coin show_trace =
    require_nodes n;
    (* The crash victims are p0, p2, p4, ... *)
    require
      (crashes >= 0 && 2 * (crashes - 1) < n)
      "crashes must be in [0, (n+1)/2]";
    let inputs = if unanimous then Array.make n true else split_inputs n in
    let crash_schedule = List.init crashes (fun k -> (10 + (13 * k), 2 * k)) in
    let cfg =
      {
        (Ben_or.Runner.default_config ~n ~inputs) with
        seed = Int64.of_int seed;
        mode;
        crash_schedule;
        common_coin;
      }
    in
    let r = Ben_or.Runner.run cfg in
    Format.printf "Ben-Or n=%d seed=%d crashes=%d@." n seed (List.length r.crashed);
    List.iter
      (fun (p, v, m) -> Format.printf "  p%d decided %b in round %d@." p v m)
      r.decisions;
    Format.printf "virtual time %d, %d messages sent, %d delivered@." r.virtual_time
      r.messages_sent r.messages_delivered;
    (match r.violations with
    | [] -> Format.printf "all object and consensus guarantees hold@."
    | vs ->
        Format.printf "VIOLATIONS:@.";
        List.iter (fun v -> Format.printf "  %a@." Consensus.Monitor.pp_violation v) vs);
    dump_trace ~limit:show_trace r.trace;
    if r.violations <> [] then exit 1
  in
  let term =
    Term.(
      const run $ n_arg 8 $ seed_arg $ mode_arg $ crashes_arg $ unanimous_arg
      $ coin_arg $ show_trace_arg)
  in
  Cmd.v (Cmd.info "ben-or" ~doc:"Run Ben-Or's randomized consensus (async, crash faults).") term

(* --------------------------------------------------------- phase-king -- *)

let phase_king_cmd =
  let strategy_arg =
    let strategies =
      [
        ("silent", `Silent);
        ("random", `Random);
        ("split-world", `Split);
        ("camp-splitter", `Camp);
        ("vote-inflater", `Inflate);
      ]
    in
    let doc = "Byzantine strategy: silent, random, split-world, camp-splitter, vote-inflater." in
    Arg.(value & opt (enum strategies) `Camp & info [ "strategy" ] ~docv:"STRAT" ~doc)
  in
  let mode_arg =
    let doc = "Implementation: $(b,decomposed) (AC+conciliator template) or $(b,monolithic)." in
    Arg.(
      value
      & opt
          (enum
             [ ("decomposed", Phase_king.Runner.Decomposed); ("monolithic", Phase_king.Runner.Monolithic) ])
          Phase_king.Runner.Decomposed
      & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let algorithm_arg =
    let doc = "Royal flavour: $(b,king) (3t < n, 3 rounds/phase) or $(b,queen) (4t < n, 2 rounds/phase)." in
    Arg.(
      value
      & opt (enum [ ("king", Phase_king.Runner.King); ("queen", Phase_king.Runner.Queen) ])
          Phase_king.Runner.King
      & info [ "algorithm" ] ~docv:"ALGO" ~doc)
  in
  let run n seed strategy mode algorithm =
    require_nodes n;
    let strategy =
      match strategy with
      | `Silent -> Netsim.Byzantine.silent
      | `Random -> Netsim.Byzantine.random_of [| 0; 1; 2 |]
      | `Split -> Netsim.Byzantine.split_world 0 1
      | `Camp -> Phase_king.Strategies.camp_splitter
      | `Inflate -> Phase_king.Strategies.vote_inflater 1
    in
    let inputs = Array.init n (fun i -> i mod 2) in
    let base =
      match algorithm with
      | Phase_king.Runner.King -> Phase_king.Runner.default_config ~n ~inputs
      | Phase_king.Runner.Queen -> Phase_king.Runner.default_queen_config ~n ~inputs
    in
    let cfg = { base with seed = Int64.of_int seed; strategy; mode } in
    let r = Phase_king.Runner.run cfg in
    Format.printf "Phase-%s n=%d t=%d strategy=%s@."
      (match algorithm with Phase_king.Runner.King -> "King" | Queen -> "Queen")
      n cfg.Phase_king.Runner.faults strategy.Netsim.Sync_net.strategy_name;
    List.iter
      (fun (p, v) -> Format.printf "  p%d decided %d after %d rounds@." p v r.template_rounds)
      r.final_decisions;
    List.iter
      (fun (p, v, m) -> Format.printf "  (p%d first committed %d in round %d)@." p v m)
      r.first_commits;
    Format.printf "%d lock-step rounds, ~%d messages@." r.sync_rounds r.messages;
    (match r.violations with
    | [] -> Format.printf "all object and consensus guarantees hold@."
    | vs ->
        Format.printf "VIOLATIONS:@.";
        List.iter (fun v -> Format.printf "  %a@." Consensus.Monitor.pp_violation v) vs);
    if r.violations <> [] then exit 1
  in
  let term =
    Term.(const run $ n_arg 7 $ seed_arg $ strategy_arg $ mode_arg $ algorithm_arg)
  in
  Cmd.v
    (Cmd.info "phase-king"
       ~doc:"Run Phase-King or Phase-Queen Byzantine consensus (synchronous).")
    term

(* --------------------------------------------------------------- raft -- *)

let raft_cmd =
  let fault_arg =
    let doc = "Fault plan: none, crash-leader, crash-restart, partition." in
    Arg.(
      value
      & opt (enum [ ("none", `None); ("crash-leader", `Crash); ("crash-restart", `Restart); ("partition", `Partition) ]) `None
      & info [ "fault" ] ~docv:"FAULT" ~doc)
  in
  let run n seed fault show_trace =
    require_nodes n;
    let cl = Raft.Cluster.create ~seed:(Int64.of_int seed) ~n () in
    let inputs = Array.init n (fun i -> 100 + i) in
    let cons = Raft.Consensus_raft.create ~cluster:cl ~inputs in
    Raft.Cluster.start cl;
    ignore (Raft.Cluster.run_until cl (fun () -> Raft.Cluster.current_leader cl <> None) : bool);
    (match (fault, Raft.Cluster.current_leader cl) with
    | `None, _ | _, None -> ()
    | `Crash, Some l -> Raft.Cluster.crash cl l
    | `Restart, Some l ->
        Raft.Cluster.crash cl l;
        Dsim.Engine.schedule (Raft.Cluster.engine cl) ~delay:2000 (fun () ->
            Raft.Cluster.restart cl l)
    | `Partition, Some l ->
        let others = List.filter (fun i -> i <> l) (List.init n Fun.id) in
        Raft.Cluster.partition cl [ [ l ]; others ];
        Dsim.Engine.schedule (Raft.Cluster.engine cl) ~delay:3000 (fun () ->
            Raft.Cluster.heal cl));
    let all = Raft.Consensus_raft.run_until_all_decided ~timeout:300_000 cons in
    Format.printf "Raft n=%d seed=%d: all live replicas decided: %b (t=%d)@." n seed all
      (Dsim.Engine.now (Raft.Cluster.engine cl));
    List.iter
      (fun (p, v) -> Format.printf "  p%d decided %d@." p v)
      (Raft.Consensus_raft.decisions cons);
    Format.printf "leaders by term: %s@."
      (String.concat ", "
         (List.map
            (fun (t, l) -> Printf.sprintf "t%d->p%d" t l)
            (Raft.Cluster.leaders_by_term cl)));
    Format.printf "timer-reconciliator invocations: %d@."
      (List.length (Raft.Consensus_raft.reconciliator_invocations cons));
    let problems =
      Raft.Cluster.violations cl
      @ Raft.Cluster.check_log_matching cl
      @ Raft.Consensus_raft.check_vac_view cons
    in
    (match problems with
    | [] -> Format.printf "all Raft invariants and VAC-view guarantees hold@."
    | ps ->
        Format.printf "VIOLATIONS:@.";
        List.iter (Format.printf "  %s@.") ps);
    dump_trace ~limit:show_trace (Dsim.Engine.trace (Raft.Cluster.engine cl));
    if problems <> [] then exit 1
  in
  let term = Term.(const run $ n_arg 5 $ seed_arg $ fault_arg $ show_trace_arg) in
  Cmd.v (Cmd.info "raft" ~doc:"Run consensus through Raft with the D&S(v) command.") term

(* --------------------------------------------------------- sharedmem -- *)

let sharedmem_cmd =
  let run n seed =
    require_nodes n;
    let module P = Sharedmem.Protocol.Make (Consensus.Objects.Bool_value) in
    let module M = Consensus.Monitor.Make (Consensus.Objects.Bool_value) in
    let eng = Dsim.Engine.create ~seed:(Int64.of_int seed) () in
    let world = Sharedmem.World.create eng () in
    let shared = P.create_shared ~n world in
    let monitor = M.create () in
    let decisions = ref [] in
    for i = 0 to n - 1 do
      let input = i mod 2 = 0 in
      M.record_initial monitor ~pid:i input;
      ignore
        (Dsim.Engine.spawn eng (fun ectx ->
             let ctx = { P.shared; proc = { Sharedmem.World.world; me = i; ectx } } in
             let observer = M.observer monitor ~pid:i in
             let v, m = P.Consensus_sm.consensus ~observer ctx input in
             decisions := (i, v, m) :: !decisions)
        : Dsim.Engine.pid)
    done;
    ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
    Format.printf "Shared-memory consensus (Gafni AC + Aspnes conciliator) n=%d@." n;
    List.iter
      (fun (p, v, m) -> Format.printf "  p%d decided %b in round %d@." p v m)
      (List.rev !decisions);
    Format.printf "%d register operations@." (P.register_operations shared);
    let problems = M.check_ac monitor @ M.check_consensus monitor in
    (match problems with
    | [] -> Format.printf "all object and consensus guarantees hold@."
    | ps ->
        Format.printf "VIOLATIONS:@.";
        List.iter (fun v -> Format.printf "  %a@." Consensus.Monitor.pp_violation v) ps);
    if problems <> [] then exit 1
  in
  let term = Term.(const run $ n_arg 6 $ seed_arg) in
  Cmd.v
    (Cmd.info "sharedmem"
       ~doc:"Run wait-free shared-memory consensus (registers, Aspnes' framework).")
    term

(* ---------------------------------------------------------------- rsm -- *)

let rsm_cmd =
  let run n seed backend clients commands crashes batch show_trace =
    require_crashes ~n crashes;
    require_batch batch;
    let r, s =
      Workload.Rsm_load.run_one ~n ~clients ~commands ~batch ~crashes ~seed
        ~backend ()
    in
    Format.printf "RSM over %s: n=%d clients=%d x %d cmds batch=%d seed=%d@."
      s.Workload.Rsm_load.backend_name n clients commands batch seed;
    Format.printf
      "  %d/%d commands acked, %d slots, %d consensus instances, %d messages@."
      s.Workload.Rsm_load.acked s.Workload.Rsm_load.commands
      s.Workload.Rsm_load.slots s.Workload.Rsm_load.instances
      s.Workload.Rsm_load.messages;
    (match r.Rsm.Runner.crashed with
    | [] -> ()
    | cs ->
        Format.printf "  crashed: %s@."
          (String.concat ", " (List.map (Printf.sprintf "p%d") cs)));
    Array.iteri
      (fun pid count ->
        Format.printf "  p%d applied %d commands%s@." pid count
          (if List.mem pid r.Rsm.Runner.crashed then " (crashed)" else ""))
      r.Rsm.Runner.delivered;
    Format.printf "  throughput %.1f cmds/1000vt over %d virtual time@."
      s.Workload.Rsm_load.throughput s.Workload.Rsm_load.virtual_time;
    Option.iter
      (fun l -> Format.printf "  ack latency %a@." Workload.Stats.pp_summary l)
      s.Workload.Rsm_load.latency;
    let problems = r.Rsm.Runner.violations @ r.Rsm.Runner.completeness in
    (match problems with
    | [] when r.Rsm.Runner.digests_agree ->
        Format.printf
          "total order, integrity, no-duplication and completeness all hold; \
           live replicas' states agree@."
    | [] ->
        Format.printf "VIOLATION: live replicas' state digests diverge@."
    | vs ->
        Format.printf "VIOLATIONS:@.";
        List.iter (fun v -> Format.printf "  %a@." Rsm.Checker.pp_violation v) vs);
    dump_trace ~limit:show_trace r.Rsm.Runner.trace;
    if problems <> [] || not r.Rsm.Runner.digests_agree then exit 1
  in
  let term =
    Term.(
      const run $ n_arg 5 $ seed_arg $ backend_arg $ clients_arg 4
      $ commands_arg 8 $ crashes_arg $ batch_arg 8 $ show_trace_arg)
  in
  Cmd.v
    (Cmd.info "rsm"
       ~doc:
         "Run the replicated KV state machine: total-order broadcast over a \
          log of consensus slots, any backend.")
    term

(* -------------------------------------------------------------- store -- *)

let store_cmd =
  let crashes_arg =
    let doc = "Replicas to crash (staggered early in the run)." in
    Arg.(value & opt int 0 & info [ "crashes" ] ~docv:"F" ~doc)
  in
  let restart_after_arg =
    let doc =
      "Restart each crashed replica this much virtual time after its crash \
       (crash-recovery through real WAL replay; default: crashed replicas \
       stay down)."
    in
    Arg.(value & opt (some int) None & info [ "restart-after" ] ~docv:"T" ~doc)
  in
  let snapshot_every_arg =
    let doc = "Snapshot + compact every this many non-empty slots (0 = never)." in
    Arg.(value & opt int 4 & info [ "snapshot-every" ] ~docv:"S" ~doc)
  in
  let ack_before_fsync_arg =
    let doc =
      "Deliberately broken store: ack commands at delivery, before their WAL \
       records are durable.  Exists to demonstrate the durability audit."
    in
    Arg.(value & flag & info [ "ack-before-fsync" ] ~doc)
  in
  let plan_file_arg =
    let doc = "Inject this nemesis plan (storage-fault actions welcome)." in
    Arg.(value & opt (some file) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let dump_wal_arg =
    let doc = "Dump every replica's durable WAL records after the run." in
    Arg.(value & flag & info [ "dump-wal" ] ~doc)
  in
  let run n seed backend clients commands crashes restart_after snapshot_every
      ack_before_fsync plan_file dump_wal show_trace =
    require_crashes ~n crashes;
    require_restart_after restart_after;
    let inject =
      Option.map
        (fun file -> Nemesis.Interp.install_rsm (read_plan ~n file))
        plan_file
    in
    let store =
      {
        Rsm.Runner.default_store_config with
        Rsm.Runner.snapshot_every;
        ack_before_fsync;
      }
    in
    let r, s =
      Workload.Rsm_load.run_one ~n ~clients ~commands ~batch:4 ~crashes
        ?restart_after ~seed ?inject ~store ~backend ()
    in
    Format.printf "Durable RSM over %s: n=%d clients=%d x %d cmds seed=%d%s@."
      s.Workload.Rsm_load.backend_name n clients commands seed
      (if ack_before_fsync then " (BROKEN: ack-before-fsync)" else "");
    Format.printf "  %d/%d commands acked, %d slots, vt %d@."
      s.Workload.Rsm_load.acked s.Workload.Rsm_load.commands
      s.Workload.Rsm_load.slots s.Workload.Rsm_load.virtual_time;
    Array.iteri
      (fun pid (disk : Store.Disk.t) ->
        let st = Store.Disk.stats disk in
        Format.printf "  p%d disk: %a@." pid Store.Disk.pp_stats st;
        (match Store.Disk.latest_snapshot disk with
        | Some snap ->
            Format.printf "    snapshot chain (%d): latest %a@."
              (List.length (Store.Disk.snapshots disk))
              Store.Disk.pp_snapshot snap
        | None -> Format.printf "    no snapshot@.");
        if dump_wal then
          List.iter
            (fun rec_ -> Format.printf "    %a@." Store.Disk.pp_record rec_)
            (Store.Disk.records disk))
      r.Rsm.Runner.disks;
    let problems =
      r.Rsm.Runner.violations @ r.Rsm.Runner.completeness
      @ r.Rsm.Runner.durability
    in
    (match problems with
    | [] when r.Rsm.Runner.digests_agree ->
        Format.printf
          "total order, completeness and durability all hold; live replicas' \
           states agree@."
    | [] -> Format.printf "VIOLATION: live replicas' state digests diverge@."
    | vs ->
        Format.printf "VIOLATIONS:@.";
        List.iter (fun v -> Format.printf "  %a@." Rsm.Checker.pp_violation v) vs);
    dump_trace ~limit:show_trace r.Rsm.Runner.trace;
    if problems <> [] || not r.Rsm.Runner.digests_agree then exit 1
  in
  let term =
    Term.(
      const run $ n_arg 5 $ seed_arg $ backend_arg $ clients_arg 3
      $ commands_arg 5 $ crashes_arg $ restart_after_arg $ snapshot_every_arg
      $ ack_before_fsync_arg $ plan_file_arg $ dump_wal_arg $ show_trace_arg)
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "Run the RSM on simulated stable storage (per-replica WAL + \
          snapshots), inspect the WAL and snapshot chains, and audit \
          durability: every acked command must survive crash-recovery.")
    term

(* ------------------------------------------------------------ nemesis -- *)

let nemesis_cmd =
  let backends_arg =
    backends_arg
      ~doc:"Backend(s) to campaign against: ben-or, phase-king, raft, omega, all."
  in
  let flags =
    campaign_flags ~plans:50 ~doc:"Seeded random fault plans per backend."
  in
  let max_actions_arg =
    let doc = "Max fault actions per generated plan." in
    Arg.(value & opt int 10 & info [ "max-actions" ] ~docv:"A" ~doc)
  in
  let max_down_arg =
    let doc =
      "Max simultaneously crashed replicas (default a minority; set to N to \
       deliberately under-provision)."
    in
    Arg.(value & opt (some int) None & info [ "max-down" ] ~docv:"D" ~doc)
  in
  let benign_arg =
    let doc =
      "Generate quiet-horizon plans only: every crash restarted and every \
       partition healed before the horizon."
    in
    Arg.(value & flag & info [ "benign" ] ~doc)
  in
  let plan_file_arg =
    let doc = "Replay this plan file (skips generation; one run per backend)." in
    Arg.(value & opt (some file) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let dump_arg =
    let doc = "Write the offending plan (shrunk if --shrink) to this file." in
    Arg.(value & opt (some string) None & info [ "dump" ] ~docv:"FILE" ~doc)
  in
  let shrink_arg =
    let doc = "On failure, shrink the first failing plan to a local minimum." in
    Arg.(value & flag & info [ "shrink" ] ~doc)
  in
  let quiet_arg =
    let doc = "No per-run progress dots." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let storage_arg =
    let doc =
      "Give every run a WAL-backed store, let generated plans draw storage \
       faults (torn writes, sync-tail loss, io errors, stalls), and audit \
       durability: acked commands must survive at the live replicas."
    in
    Arg.(value & flag & info [ "storage-faults" ] ~doc)
  in
  let run n seed backends flags clients commands batch max_actions max_down
      horizon benign storage plan_file dump shrink quiet show_trace =
    require_nodes n;
    require_batch batch;
    require (max_actions >= 1) "max-actions must be >= 1";
    require_horizon horizon;
    Option.iter (fun d -> require (d >= 0) "max-down must be >= 0") max_down;
    let module C = Nemesis.Campaign in
    let profile =
      {
        (Nemesis.Gen.default ~n) with
        horizon;
        max_actions;
        benign;
        max_down =
          Option.value max_down ~default:(Nemesis.Gen.default ~n).max_down;
      }
    in
    let cfg =
      {
        (C.default_config ~n ()) with
        C.backends;
        plans = flags.plans;
        first_seed = seed;
        clients;
        commands;
        batch;
        profile;
        storage;
      }
    in
    match plan_file with
    | Some file ->
        (* Single-plan replay mode. *)
        let plan = read_plan ~n file in
        Format.printf "replaying %s (%d actions) at seed %d:@.%a" file
          (Nemesis.Plan.length plan) seed Nemesis.Plan.pp plan;
        let any_unsafe = ref false in
        List.iter
          (fun backend ->
            let r = C.run_plan ~quiet:(show_trace <= 0) cfg ~backend ~seed plan in
            let safe = C.safety_ok r in
            let live = C.complete r in
            let durable = C.durable_ok r in
            if (not safe) || not durable then any_unsafe := true;
            Format.printf
              "%-12s %d/%d acked, %d slots, vt %d — safety %s, complete %s, \
               durable %s@."
              (Rsm.Backend.name backend) r.Rsm.Runner.acked
              r.Rsm.Runner.submitted r.Rsm.Runner.slots r.Rsm.Runner.virtual_time
              (if safe then "ok" else "VIOLATED")
              (if live then "yes" else "NO")
              (if durable then "yes" else "VIOLATED");
            List.iter
              (fun v -> Format.printf "  %a@." Rsm.Checker.pp_violation v)
              (r.Rsm.Runner.violations @ r.Rsm.Runner.completeness
             @ r.Rsm.Runner.durability);
            dump_trace ~limit:show_trace r.Rsm.Runner.trace)
          backends;
        if !any_unsafe then exit 1
    | None ->
        let progress (o : C.outcome) =
          if not o.safety then 'X' else if not o.live then '!' else '.'
        in
        let report =
          run_campaign
            (module C)
            ~progress:(if quiet then None else Some progress)
            flags cfg
        in
        (* The first failing run, by gate precedence, and the replay
           predicate that keeps it failing while it is shrunk. *)
        let first_failure =
          List.find_map
            (fun (gate, fails) ->
              match Nemesis.Sweep.failing gate report with
              | o :: _ -> Some (o, fails)
              | [] -> None)
            [
              ((fun o -> o.C.safety), fun r -> not (C.safety_ok r));
              ((fun o -> o.C.durable), fun r -> not (C.durable_ok r));
              ((fun o -> o.C.live), fun r -> not (C.complete r));
            ]
        in
        Option.iter
          (fun ((o : C.outcome), failing) ->
            let backend =
              List.find
                (fun b -> Rsm.Backend.name b = o.backend_name)
                Rsm.Backend.all
            in
            Format.printf "@.first failing plan (%s, seed %d):@.%a"
              o.backend_name o.plan_seed Nemesis.Plan.pp o.plan;
            let final_plan =
              if shrink then begin
                let oracle =
                  {
                    Nemesis.Shrink.run =
                      (fun p -> C.run_plan cfg ~backend ~seed:o.plan_seed p);
                    failing;
                  }
                in
                let s = Nemesis.Shrink.shrink oracle o.plan in
                Format.printf
                  "@.shrunk %d -> %d actions in %d replays:@.%a" s.reduced_from
                  (Nemesis.Plan.length s.plan) s.replays Nemesis.Plan.pp s.plan;
                s.plan
              end
              else o.plan
            in
            Option.iter
              (fun file ->
                Out_channel.with_open_text file (fun oc ->
                    output_string oc (Nemesis.Plan.to_string final_plan));
                Format.printf "plan written to %s@." file)
              dump)
          first_failure;
        if Nemesis.Sweep.failing (fun o -> o.C.safety && o.C.durable) report <> []
        then exit 1
  in
  let term =
    Term.(
      const run $ n_arg 5 $ seed_arg $ backends_arg $ flags $ clients_arg 3
      $ commands_arg 3 $ batch_arg 4 $ max_actions_arg $ max_down_arg $ horizon_arg
      $ benign_arg $ storage_arg $ plan_file_arg $ dump_arg $ shrink_arg
      $ quiet_arg $ show_trace_arg)
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Fault-injection campaigns against the RSM: generate seeded random \
          fault plans, audit every run with the total-order checker, shrink \
          failing plans to minimal counterexamples.")
    term

(* ------------------------------------------------------------- detect -- *)

let detect_cmd =
  let period_arg =
    let doc = "Heartbeat period (virtual time)." in
    Arg.(
      value
      & opt int Detect.Timeout.default.Detect.Timeout.period
      & info [ "period" ] ~docv:"T" ~doc)
  in
  let timeout_arg =
    let doc = "Initial suspicion timeout (grows adaptively on each suspicion)." in
    Arg.(
      value
      & opt int Detect.Timeout.default.Detect.Timeout.initial
      & info [ "timeout" ] ~docv:"T" ~doc)
  in
  let cap_arg =
    let doc = "Upper bound the adaptive timeout saturates at." in
    Arg.(
      value
      & opt int Detect.Timeout.default.Detect.Timeout.cap
      & info [ "cap" ] ~docv:"T" ~doc)
  in
  let mutant_arg =
    let doc =
      "Replace the honest detector with a lying mutant: $(b,false-suspect) \
       permanently suspects node 0 (a correct process — the backend must \
       still decide, routing around it), $(b,rotate) names a different \
       leader on every query (liveness is lost; safety must survive)."
    in
    Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("false-suspect", Detect.Oracle.False_suspect 0);
                  ("rotate", Detect.Oracle.Rotating);
                ]))
          None
      & info [ "broken-detector" ] ~docv:"MUTANT" ~doc)
  in
  let expect_violation_arg =
    let doc =
      "Invert the liveness exit code: succeed only when liveness IS lost \
       (mutant gates in CI).  A safety violation is never expected — a \
       lying detector must not break agreement, so that still fails, with \
       exit code 2."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let campaign_arg =
    let doc =
      "Sweep generated fault plans instead of a single run (see --plans)."
    in
    Arg.(value & flag & info [ "campaign" ] ~doc)
  in
  let flags =
    campaign_flags ~plans:50 ~doc:"Seeded random fault plans in --campaign mode."
  in
  let plan_file_arg =
    let doc = "Inject this plan file into a single run." in
    Arg.(value & opt (some file) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let quiet_arg =
    let doc = "No per-run progress dots in --campaign mode." in
    Arg.(value & flag & info [ "quiet" ] ~doc)
  in
  let run n seed period timeout cap mutant expect_violation campaign flags
      horizon plan_file quiet show_trace =
    let module C = Nemesis.Detect_campaign in
    let params =
      { Detect.Timeout.default with Detect.Timeout.period; initial = timeout; cap }
    in
    require_nodes n;
    require (Detect.Timeout.valid params) "invalid detector parameters";
    require_horizon horizon;
    let mutant_v = Option.value mutant ~default:Detect.Oracle.Honest in
    (* Safety is unconditional: even a lying detector breaking agreement
       is a bug in the backend, never an "expected" violation. *)
    let finish ~safety_ok ~liveness_ok =
      if not safety_ok then begin
        if mutant <> None then
          Format.eprintf "lying detector must not break safety@.";
        exit (if mutant <> None then 2 else 1)
      end;
      if expect_violation then
        if liveness_ok then begin
          Format.eprintf "no liveness violation found but one was expected@.";
          exit 1
        end
        else begin
          Format.printf "expected liveness violation found (safety intact)@.";
          exit 0
        end
      else if not liveness_ok then exit 1
    in
    if campaign then begin
      let cfg =
        {
          (C.default_config ~n ()) with
          C.plans = flags.plans;
          first_seed = seed;
          params = [ params ];
          mutant = mutant_v;
          profile = { (Nemesis.Gen.default ~n) with Nemesis.Gen.horizon };
        }
      in
      let progress (o : C.outcome) =
        if not (o.agreement && o.validity) then 'X'
        else if o.livelock then '!'
        else '.'
      in
      let report =
        run_campaign
          (module C)
          ~progress:(if quiet then None else Some progress)
          flags cfg
      in
      let passes gate = Nemesis.Sweep.failing gate report = [] in
      finish
        ~safety_ok:(passes (fun o -> o.C.agreement && o.C.validity))
        ~liveness_ok:(passes (fun o -> not o.C.livelock))
    end
    else begin
      let plan = Option.map (read_plan ~n) plan_file in
      let r =
        Detect.Runner.run ~n ~seed:(Int64.of_int seed) ~params ~mutant:mutant_v
          ~horizon:(horizon + C.horizon_slack)
          ?policy:(Option.map Nemesis.Interp.policy plan)
          ?install:(Option.map Nemesis.Interp.install_detect plan)
          ()
      in
      Array.iteri
        (fun p d ->
          Format.printf "node %d: %s@." p
            (match d with
            | Some v ->
                Printf.sprintf "decided %b at t=%d" v
                  (Option.get r.Detect.Runner.decided_at.(p))
            | None -> "undecided"))
        r.Detect.Runner.decisions;
      Format.printf
        "agreement %s, validity %s, all live decided: %b, vt %d@."
        (if r.Detect.Runner.agreement_ok then "ok" else "VIOLATED")
        (if r.Detect.Runner.validity_ok then "ok" else "VIOLATED")
        r.Detect.Runner.all_live_decided r.Detect.Runner.virtual_time;
      Format.printf
        "detector: %d heartbeats, %d suspicions (%d false), %d unsuspicions, \
         omega changes %d, stable %s@."
        r.Detect.Runner.heartbeats_sent r.Detect.Runner.suspicions
        r.Detect.Runner.false_suspicions r.Detect.Runner.unsuspicions
        r.Detect.Runner.omega_changes
        (match r.Detect.Runner.omega_stable_at with
        | Some t -> Printf.sprintf "at t=%d" t
        | None -> "never");
      dump_trace ~limit:show_trace (Dsim.Engine.trace r.Detect.Runner.engine);
      finish
        ~safety_ok:(r.Detect.Runner.agreement_ok && r.Detect.Runner.validity_ok)
        ~liveness_ok:r.Detect.Runner.all_live_decided
    end
  in
  let term =
    Term.(
      const run $ n_arg 4 $ seed_arg $ period_arg $ timeout_arg $ cap_arg
      $ mutant_arg $ expect_violation_arg $ campaign_arg $ flags $ horizon_arg
      $ plan_file_arg $ quiet_arg $ show_trace_arg)
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:
         "Failure-detector oracles and indulgent consensus: run the \
          Omega-driven backend under fault plans, audit the indulgence \
          contract (safety unconditional, liveness once the detector \
          stabilises), and sweep detector-accuracy campaigns.")
    term

(* -------------------------------------------------------------- shard -- *)

let shard_cmd =
  let backend_arg =
    let doc = "Consensus backend deciding each shard's log slots: ben-or, phase-king, raft, omega." in
    Arg.(
      value
      & opt
          (enum backend_choices)
          Rsm.Backend.raft
      & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let shards_arg =
    let doc = "Independent consensus groups the keyspace is hash-partitioned over." in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"S" ~doc)
  in
  let replicas_arg =
    let doc = "Replicas per shard." in
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"R" ~doc)
  in
  let clients_arg =
    let doc = "Simulated clients (closed-loop callback machines)." in
    Arg.(value & opt int 10_000 & info [ "clients" ] ~docv:"K" ~doc)
  in
  let ops_arg =
    let doc = "Operations per client." in
    Arg.(value & opt int 2 & info [ "ops"; "commands" ] ~docv:"M" ~doc)
  in
  let keys_arg =
    let doc = "Keyspace size (Zipf-skewed within each shard's pool)." in
    Arg.(value & opt int 1024 & info [ "keys" ] ~docv:"KEYS" ~doc)
  in
  let tx_pct_arg =
    let doc = "Percentage of operations that are multi-shard transactions." in
    Arg.(value & opt int 10 & info [ "tx-pct" ] ~docv:"PCT" ~doc)
  in
  let tx_span_arg =
    let doc = "Shards each transaction touches." in
    Arg.(value & opt int 2 & info [ "tx-span" ] ~docv:"SPAN" ~doc)
  in
  let zipf_arg =
    let doc = "Zipf skew exponent for key popularity (0 = uniform)." in
    Arg.(value & opt float 1.1 & info [ "zipf" ] ~docv:"S" ~doc)
  in
  let open_loop_arg =
    let doc =
      "Open-loop arrivals with this mean inter-arrival gap (virtual time) \
       instead of closed-loop clients."
    in
    Arg.(value & opt (some float) None & info [ "open-loop" ] ~docv:"GAP" ~doc)
  in
  let no_nemesis_arg =
    let doc = "Disable the default shard-local partition nemesis." in
    Arg.(value & flag & info [ "no-nemesis" ] ~doc)
  in
  let storage_arg =
    let doc =
      "Give every replica a WAL-backed store and open shard-local storage \
       fault windows (torn writes, io errors); audits durability."
    in
    Arg.(value & flag & info [ "storage-faults" ] ~doc)
  in
  let broken_arg =
    let doc =
      "Deliberately broken 2PC: the coordinator commits on the first yes \
       vote.  Exists to demonstrate the cross-shard atomicity checker."
    in
    Arg.(value & flag & info [ "broken-2pc" ] ~doc)
  in
  let campaign_arg =
    let doc =
      "Run a seed-sweep fault campaign (one generated plan per shard per \
       seed) instead of a single run."
    in
    Arg.(value & flag & info [ "campaign" ] ~doc)
  in
  let flags =
    campaign_flags ~plans:30
      ~doc:"Campaign mode: seeded per-shard fault plans per backend."
  in
  let max_events_arg =
    let doc = "Engine event budget." in
    Arg.(value & opt int 20_000_000 & info [ "max-events" ] ~docv:"E" ~doc)
  in
  (* The default nemesis: a staggered minority partition inside every
     shard (plus, with --storage-faults, a torn-write and an io-error
     window per shard), all healed well before the run drains. *)
  let default_inject ~replicas ~partitions ~storage groups =
    Array.iteri
      (fun s g ->
        let t0 = 100 + (40 * s) in
        if partitions then begin
          let victim = s mod replicas in
          let rest =
            List.filter (fun r -> r <> victim) (List.init replicas Fun.id)
          in
          let engine = Rsm.Group.engine g in
          Dsim.Engine.schedule engine ~delay:t0 (fun () ->
              Rsm.Group.partition g [ [ victim ]; rest ]);
          Dsim.Engine.schedule engine ~delay:(t0 + 500) (fun () ->
              Rsm.Group.heal g)
        end;
        if storage then
          Rsm.Group.set_store_policy g
            {
              Store.Policy.none with
              Store.Policy.torn =
                [ Store.Policy.rule ~from_:(t0 + 100) ~until_:(t0 + 160) () ];
              io_error =
                [ Store.Policy.rule ~from_:(t0 + 300) ~until_:(t0 + 360) () ];
            })
      groups
  in
  let run seed backend shards replicas clients ops keys tx_pct tx_span zipf
      batch open_loop no_nemesis storage broken_2pc expect_violation campaign
      flags max_events show_trace =
    require (shards >= 1 && replicas >= 1) "need at least one shard and one replica";
    require (clients >= 1) "clients must be >= 1";
    require (ops >= 0) "ops must be >= 0";
    require (keys >= 1) "keys must be >= 1";
    require (tx_pct >= 0 && tx_pct <= 100) "tx-pct must be in [0, 100]";
    require (tx_span >= 1) "tx-span must be >= 1";
    require_batch batch;
    let finish = finish ~expect_violation in
    let load =
      {
        Workload.Load.default with
        Workload.Load.clients;
        ops_per_client = ops;
        keys;
        zipf_s = zipf;
        tx_pct;
        tx_span;
      }
    in
    if campaign then begin
      let module C = Nemesis.Shard_campaign in
      let cfg =
        {
          (C.default_config ~shards ~replicas ()) with
          C.backends = [ backend ];
          plans = flags.plans;
          first_seed = seed;
          clients;
          ops_per_client = ops;
          keys;
          tx_pct;
          batch;
          max_events;
          storage;
          broken_2pc;
        }
      in
      let report = run_campaign (module C) ~progress:None flags cfg in
      finish
        ~violations_found:
          (Nemesis.Sweep.failing
             (fun o -> o.C.safety && o.C.atomic && o.C.durable)
             report
          <> [])
    end
    else begin
      let inject =
        if no_nemesis && not storage then None
        else
          Some
            (default_inject ~replicas ~partitions:(not no_nemesis) ~storage)
      in
      let r, s =
        Workload.Shard_load.run
          (Workload.Shard_load.config ~shards ~replicas ~batch ~seed ~load
             ?arrival:
               (Option.map
                  (fun mean_gap -> Shard.Runner.Open_loop { mean_gap })
                  open_loop)
             ?store:
               (if storage then Some Rsm.Runner.default_store_config else None)
             ?inject ~broken_2pc ~max_events ~quiet:(show_trace <= 0) ~backend
             ())
      in
      Format.printf
        "Sharded RSM over %s: %d shards x %d replicas, %d clients x %d ops \
         (%d%% tx, span %d, zipf %.2f), seed %d%s@."
        s.Workload.Shard_load.backend_name shards replicas clients ops tx_pct
        tx_span zipf seed
        (if broken_2pc then " (BROKEN 2PC)" else "");
      Format.printf
        "  %d/%d singles acked; %d txs: %d committed, %d aborted (abort rate \
         %.1f%%)@."
        s.Workload.Shard_load.singles_acked r.Shard.Runner.singles_submitted
        r.Shard.Runner.txs_started s.Workload.Shard_load.txs_committed
        s.Workload.Shard_load.txs_aborted
        (100. *. s.Workload.Shard_load.abort_rate);
      Array.iter
        (fun (sr : Shard.Runner.shard_report) ->
          Format.printf
            "  shard %d: %d cmds applied, %d slots, %d instances, %d msgs%s@."
            sr.Shard.Runner.sr_shard sr.Shard.Runner.sr_applied
            sr.Shard.Runner.sr_slots sr.Shard.Runner.sr_instances
            sr.Shard.Runner.sr_messages_sent
            (match sr.Shard.Runner.sr_crashed with
            | [] -> ""
            | cs ->
                Printf.sprintf " (down: %s)"
                  (String.concat "," (List.map (Printf.sprintf "r%d") cs))))
        r.Shard.Runner.shard_reports;
      Format.printf "  aggregate throughput %.1f ops/1000vt over vt %d@."
        s.Workload.Shard_load.throughput s.Workload.Shard_load.virtual_time;
      Option.iter
        (fun l ->
          Format.printf "  single latency %a@." Workload.Stats.pp_summary l)
        s.Workload.Shard_load.single_latency;
      Option.iter
        (fun l -> Format.printf "  2PC tx latency %a@." Workload.Stats.pp_summary l)
        s.Workload.Shard_load.tx_latency;
      let atomicity_problems =
        r.Shard.Runner.atomicity @ r.Shard.Runner.tx_completeness
      in
      List.iter
        (fun v -> Format.printf "  ATOMICITY %a@." Shard.Checker.pp_violation v)
        atomicity_problems;
      Array.iter
        (fun (sr : Shard.Runner.shard_report) ->
          List.iter
            (fun v ->
              Format.printf "  SHARD %d %a@." sr.Shard.Runner.sr_shard
                Rsm.Checker.pp_violation v)
            (sr.Shard.Runner.sr_violations @ sr.Shard.Runner.sr_completeness
           @ sr.Shard.Runner.sr_durability))
        r.Shard.Runner.shard_reports;
      if s.Workload.Shard_load.ok then
        Format.printf
          "cross-shard atomicity, per-shard total order and durability all \
           hold; states agree@.";
      dump_trace ~limit:show_trace r.Shard.Runner.trace;
      finish ~violations_found:(not s.Workload.Shard_load.ok)
    end
  in
  let term =
    Term.(
      const run $ seed_arg $ backend_arg $ shards_arg $ replicas_arg
      $ clients_arg $ ops_arg $ keys_arg $ tx_pct_arg $ tx_span_arg $ zipf_arg
      $ batch_arg 64 $ open_loop_arg $ no_nemesis_arg $ storage_arg $ broken_arg
      $ expect_violation_arg $ campaign_arg $ flags $ max_events_arg
      $ show_trace_arg)
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Run the sharded multi-group RSM: the keyspace hash-partitioned \
          over independent consensus groups, cross-shard transactions \
          through 2PC over the replicated logs, tens of thousands of \
          Zipfian clients, shard-local fault injection, and cross-shard \
          atomicity checking.")
    term

(* ---------------------------------------------------------------- obj -- *)

let obj_cmd =
  let backends_arg =
    backends_arg
      ~doc:"Consensus backend(s) deciding the log: ben-or, phase-king, raft, omega, all."
  in
  let object_arg =
    let doc =
      Printf.sprintf "Sequential object to replicate: %s, or $(b,all)."
        (String.concat ", "
           (List.map (Printf.sprintf "$(b,%s)") Obj.Registry.names))
    in
    Arg.(value & opt string "queue" & info [ "object" ] ~docv:"OBJ" ~doc)
  in
  let clients_arg = clients_arg ~doc:"Closed-loop clients driving the object." 3 in
  let commands_arg =
    commands_arg ~doc:"Commands per client (clients x commands <= 62, the WG cap)." 6
  in
  let restart_after_arg =
    let doc = "Restart each crashed replica this much virtual time later." in
    Arg.(value & opt (some int) None & info [ "restart-after" ] ~docv:"T" ~doc)
  in
  let broken_arg =
    let doc =
      "Deliberately broken universal construction: ack the K-th \
       state-changing log entry but discard its effect (default K=1).  \
       Every replica drops the same entry, so digests agree and the \
       total-order checker stays silent — only the Wing–Gong \
       linearizability check convicts it."
    in
    Arg.(
      value
      & opt ~vopt:(Some 1) (some int) None
      & info [ "broken-obj" ] ~docv:"K" ~doc)
  in
  let campaign_arg =
    let doc =
      "Run a nemesis campaign (objects x backends x fault plans, every run \
       Wing–Gong-checked) instead of a single run."
    in
    Arg.(value & flag & info [ "campaign" ] ~doc)
  in
  let flags =
    campaign_flags ~plans:5
      ~doc:"Campaign mode: fault plans (= seeds) per object x backend."
  in
  let storage_arg =
    let doc =
      "Campaign mode: WAL-backed replicas, plans draw storage faults."
    in
    Arg.(value & flag & info [ "storage-faults" ] ~doc)
  in
  let run n seed backends object_name clients commands batch crashes
      restart_after drop_nth expect_violation campaign flags storage =
    let objects =
      if object_name = "all" then Obj.Registry.names
      else if List.mem object_name Obj.Registry.names then [ object_name ]
      else begin
        Format.eprintf "unknown object %S (try one of: %s, all)@." object_name
          (String.concat ", " Obj.Registry.names);
        exit 2
      end
    in
    require
      (clients * commands <= Workload.Obj_load.max_history)
      (Printf.sprintf "clients x commands = %d exceeds the Wing–Gong history cap (%d)"
         (clients * commands) Workload.Obj_load.max_history);
    require_crashes ~n crashes;
    require_restart_after restart_after;
    require_batch batch;
    let finish = finish ~expect_violation in
    if campaign then begin
      let module C = Nemesis.Obj_campaign in
      let cfg =
        {
          (C.default_config ~n ()) with
          C.backends;
          objects;
          plans = flags.plans;
          first_seed = seed;
          clients;
          commands;
          batch;
          storage;
        }
      in
      let report = run_campaign (module C) ~progress:None flags cfg in
      finish
        ~violations_found:
          (Nemesis.Sweep.failing
             (fun o -> o.C.summary.Workload.Obj_load.ok)
             report
          <> [])
    end
    else begin
      let summaries =
        List.concat_map
          (fun object_name ->
            List.map
              (fun backend ->
                Workload.Obj_load.run ~n ~clients ~commands ~batch ~crashes
                  ?restart_after ~seed ?drop_nth ~backend
                  (Obj.Registry.find object_name))
              backends)
          objects
      in
      Workload.Obj_load.table summaries;
      List.iter
        (fun (s : Workload.Obj_load.summary) ->
          List.iter
            (Format.printf "  WG %s/%s: %s@." s.Workload.Obj_load.object_name
               s.Workload.Obj_load.backend_name)
            s.Workload.Obj_load.wg_violations)
        summaries;
      finish
        ~violations_found:
          (List.exists (fun s -> not s.Workload.Obj_load.ok) summaries)
    end
  in
  let term =
    Term.(
      const run $ n_arg 5 $ seed_arg $ backends_arg $ object_arg $ clients_arg
      $ commands_arg $ batch_arg 8 $ crashes_arg $ restart_after_arg $ broken_arg
      $ expect_violation_arg $ campaign_arg $ flags $ storage_arg)
  in
  Cmd.v
    (Cmd.info "obj"
       ~doc:
         "Run an arbitrary linearizable object through the universal \
          construction: a sequential spec lifted onto the replicated \
          consensus log, its concurrent history checked against the spec \
          with the Wing–Gong linearizability checker.")
    term

(* ------------------------------------------------------------- mcheck -- *)

let mcheck_cmd =
  let model_arg =
    let doc =
      Printf.sprintf "Model to explore: %s."
        (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") Mcheck.Models.names))
    in
    Arg.(value & opt string "ben-or" & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let n_opt_arg =
    let doc = "Number of processors (default: per-model)." in
    Arg.(value & opt (some int) None & info [ "n"; "nodes" ] ~docv:"N" ~doc)
  in
  let depth_arg =
    let doc =
      "Branch-point budget per execution: beyond it, runs continue under \
       default choices and count as truncated."
    in
    Arg.(value & opt int 12 & info [ "depth" ] ~docv:"D" ~doc)
  in
  let fault_budget_arg =
    let doc = "Maximum oracle-injected message drops per execution." in
    Arg.(value & opt int 0 & info [ "fault-budget" ] ~docv:"K" ~doc)
  in
  let reduction_arg =
    let doc =
      "Partial-order reduction: $(b,none) explores every same-tick ordering, \
       $(b,sleep) collapses commuting deliveries to distinct recipients \
       (default), $(b,dpor) adds vector-clock race analysis and explores \
       only genuine reversals (with fingerprint caching when the model \
       supports it) — never more schedules than sleep."
    in
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Mcheck.Explorer.Rnone);
               ("sleep", Mcheck.Explorer.Rsleep);
               ("dpor", Mcheck.Explorer.Rdpor);
             ])
          Mcheck.Explorer.Rsleep
      & info [ "reduction" ] ~docv:"MODE" ~doc)
  in
  let prune_arg =
    let doc =
      "Enable fingerprint pruning (models without a fingerprint ignore it; \
       sound at any fault budget for fingerprints that fold in wire state \
       and remaining budget — see DESIGN.md §11 and §16)."
    in
    Arg.(value & flag & info [ "prune" ] ~doc)
  in
  let audit_arg =
    let doc =
      "Collision audit: continue every Nth would-be fingerprint prune under \
       forced defaults and flag violations the pruned set would have missed \
       (0 = off)."
    in
    Arg.(value & opt int 0 & info [ "audit" ] ~docv:"N" ~doc)
  in
  let frontier_arg =
    let doc =
      "Target number of work-stealing partitions the frontier expands to \
       before parallel exploration; fixed per config, so reports are \
       byte-identical at every $(b,--jobs)."
    in
    Arg.(value & opt int 16 & info [ "frontier" ] ~docv:"P" ~doc)
  in
  let pct_arg =
    let doc =
      "Sample randomized schedules with PCT priorities instead of \
       exhaustive exploration ($(b,--schedules), $(b,--pct-d), \
       $(b,--pct-steps), $(b,--pct-seed) configure the sampler)."
    in
    Arg.(value & flag & info [ "pct" ] ~doc)
  in
  let schedules_arg =
    let doc = "PCT sample budget: how many randomized schedules to run." in
    Arg.(value & opt int 1000 & info [ "schedules" ] ~docv:"S" ~doc)
  in
  let pct_d_arg =
    let doc = "PCT bug depth (d-1 priority change points per schedule)." in
    Arg.(value & opt int 3 & info [ "pct-d" ] ~docv:"D" ~doc)
  in
  let pct_steps_arg =
    let doc = "PCT horizon the priority change points are drawn from." in
    Arg.(value & opt int 64 & info [ "pct-steps" ] ~docv:"T" ~doc)
  in
  let pct_seed_arg =
    let doc = "PCT base seed (schedule i uses a stream derived from seed+i)." in
    Arg.(value & opt int 1 & info [ "pct-seed" ] ~docv:"SEED" ~doc)
  in
  let max_schedules_arg =
    let doc = "Cap executions per root partition (0 = unlimited)." in
    Arg.(value & opt int 0 & info [ "max-schedules" ] ~docv:"M" ~doc)
  in
  let stop_at_first_arg =
    let doc = "Stop each partition at its first violating execution." in
    Arg.(value & flag & info [ "stop-at-first" ] ~doc)
  in
  let dump_ce_arg =
    let doc =
      "Minimize the first counterexample and write it as a replay file."
    in
    Arg.(value & opt (some string) None & info [ "dump-ce" ] ~docv:"FILE" ~doc)
  in
  let replay_arg =
    let doc =
      "Replay a previously dumped counterexample file instead of exploring \
       (the model and bounds come from the file)."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let list_models_arg =
    let doc = "List the explorable models and exit." in
    Arg.(value & flag & info [ "list-models" ] ~doc)
  in
  let run model n depth fault_budget reduction prune audit frontier
      pct schedules pct_d pct_steps pct_seed max_schedules stop_at_first jobs
      report_out dump_ce replay_file expect_violation list_models =
    Option.iter require_nodes n;
    let finish = finish ~expect_violation in
    (* The model constructors reject an unknown name or too few nodes. *)
    let model_of_name ?n name ~fault_budget =
      try Mcheck.Models.of_name ?n name ~fault_budget
      with Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 2
    in
    (* Minimize the first violating trail and write it to the --dump-ce
       file. *)
    let dump_counterexample ~config m trail =
      Option.iter
        (fun file ->
          match trail with
          | None -> Format.printf "no counterexample to dump@."
          | Some entries -> (
              match Mcheck.Explorer.minimize ~config m entries with
              | None ->
                  Format.eprintf "counterexample did not reproduce under replay@."
              | Some entries ->
                  Mcheck.Replay.save file
                    (Mcheck.Replay.of_entries ~model:m.Mcheck.Models.name ~config
                       entries);
                  Format.printf
                    "minimized counterexample (%d choices, %d non-default) \
                     written to %s@."
                    (List.length entries)
                    (Mcheck.Explorer.nondefault_count entries)
                    file))
        dump_ce
    in
    if list_models then
      List.iter
        (fun name ->
          let m = Mcheck.Models.of_name name ~fault_budget:0 in
          Format.printf "%-14s %s@." name m.Mcheck.Models.describe)
        Mcheck.Models.names
    else
      match replay_file with
      | Some file ->
          let r = Mcheck.Replay.load file in
          let config =
            {
              Mcheck.Explorer.default_config with
              depth = r.Mcheck.Replay.depth;
              fault_budget = r.Mcheck.Replay.fault_budget;
            }
          in
          let m = model_of_name ?n r.Mcheck.Replay.model ~fault_budget in
          let x = Mcheck.Explorer.replay ~config m (Mcheck.Replay.entries r) in
          Format.printf "replayed %s: model=%s choices=%d@." file
            r.Mcheck.Replay.model
            (List.length r.Mcheck.Replay.choices);
          Format.printf "  digest: %s@." x.Mcheck.Explorer.x_digest;
          if x.Mcheck.Explorer.x_violations = [] then
            Format.printf "  no violations@."
          else begin
            Format.printf "  violations:@.";
            List.iter (Format.printf "    - %s@.") x.Mcheck.Explorer.x_violations
          end;
          finish ~violations_found:(x.Mcheck.Explorer.x_violations <> [])
      | None when pct ->
          let config =
            {
              Mcheck.Pct.schedules;
              d = pct_d;
              steps = pct_steps;
              seed = pct_seed;
              fault_budget;
            }
          in
          let m = model_of_name ?n model ~fault_budget in
          let report = Mcheck.Pct.run ~jobs:(resolve_jobs jobs) ~config m in
          Format.printf "%a" Mcheck.Pct.pp_report report;
          Option.iter
            (fun file -> write_stable_report file Mcheck.Pct.pp_report_stable report)
            report_out;
          dump_counterexample
            ~config:{ Mcheck.Explorer.default_config with depth; fault_budget }
            m
            (Option.map Mcheck.Explorer.entries_of_choices
               report.Mcheck.Pct.pr_counterexample);
          finish ~violations_found:(report.Mcheck.Pct.pr_violating > 0)
      | None ->
          let config =
            {
              Mcheck.Explorer.depth;
              fault_budget;
              reduction;
              prune;
              audit;
              frontier;
              max_schedules =
                (if max_schedules <= 0 then max_int else max_schedules);
              stop_at_first;
            }
          in
          let m = model_of_name ?n model ~fault_budget in
          let report =
            Mcheck.Explorer.explore ~jobs:(resolve_jobs jobs) ~config m
          in
          Format.printf "%a" Mcheck.Explorer.pp_report report;
          Option.iter
            (fun file ->
              write_stable_report file Mcheck.Explorer.pp_report_stable report)
            report_out;
          dump_counterexample ~config m
            (Option.map
               (fun x -> x.Mcheck.Explorer.x_trail)
               report.Mcheck.Explorer.r_counterexample);
          finish
            ~violations_found:(report.Mcheck.Explorer.r_violating > 0)
  in
  let term =
    Term.(
      const run $ model_arg $ n_opt_arg $ depth_arg $ fault_budget_arg
      $ reduction_arg $ prune_arg $ audit_arg $ frontier_arg
      $ pct_arg $ schedules_arg $ pct_d_arg $ pct_steps_arg $ pct_seed_arg
      $ max_schedules_arg $ stop_at_first_arg $ jobs_arg
      $ report_out_arg "exploration report"
      $ dump_ce_arg $ replay_arg $ expect_violation_arg $ list_models_arg)
  in
  Cmd.v
    (Cmd.info "mcheck"
       ~doc:
         "Systematic schedule exploration: enumerate message-delivery orders \
          and drop decisions up to a depth bound (with sleep-set or DPOR \
          partial-order reduction), or sample randomized PCT schedules; \
          check every execution with the property monitors and minimize \
          counterexamples into replay files.")
    term

(* -------------------------------------------------------- experiments -- *)

let experiments_cmd =
  let scale_arg =
    let doc = "Workload scale: quick or full." in
    Arg.(
      value
      & opt (enum [ ("quick", Workload.Experiments.Quick); ("full", Workload.Experiments.Full) ])
          Workload.Experiments.Quick
      & info [ "scale" ] ~docv:"SCALE" ~doc)
  in
  let ids_arg =
    let doc = "Experiment ids to run (e1..e8); default all." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let csv_arg =
    let doc = "Also write machine-readable eN.csv files into this directory (created if missing)." in
    Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"DIR" ~doc)
  in
  let run scale ids csv_dir jobs =
    let only = match ids with [] -> None | ids -> Some ids in
    Option.iter
      (fun dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755)
      csv_dir;
    Workload.Experiments.run_all ~scale ?only ?csv_dir
      ~jobs:(resolve_jobs jobs) Format.std_formatter
  in
  let term = Term.(const run $ scale_arg $ ids_arg $ csv_arg $ jobs_arg) in
  Cmd.v (Cmd.info "experiments" ~doc:"Regenerate the experiment tables (E1..E8).") term

let main_cmd =
  let doc = "object-oriented consensus: decomposed consensus algorithms under simulation" in
  let info = Cmd.info "oocon" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      benor_cmd;
      phase_king_cmd;
      raft_cmd;
      sharedmem_cmd;
      rsm_cmd;
      obj_cmd;
      store_cmd;
      shard_cmd;
      nemesis_cmd;
      detect_cmd;
      mcheck_cmd;
      experiments_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
