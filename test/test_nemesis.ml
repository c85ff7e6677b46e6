(* Tests for the nemesis fault-injection subsystem: plan well-formedness
   and serialization, the generator's invariants, the interpreter against
   a bare network, safety-audited campaigns over the RSM, the
   quiet-horizon liveness property, and counterexample shrinking. *)

module Plan = Nemesis.Plan
module Gen = Nemesis.Gen
module Interp = Nemesis.Interp
module Campaign = Nemesis.Campaign
module Shard_campaign = Nemesis.Shard_campaign
module Sweep = Nemesis.Sweep
module Shrink = Nemesis.Shrink

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- plan: validation --------------------------------------------------- *)

let sample_plan : Plan.t =
  [
    { Plan.at = 10; action = Plan.Crash 1 };
    { Plan.at = 25; action = Plan.Partition [ [ 0; 2 ]; [ 3 ] ] };
    {
      Plan.at = 30;
      action = Plan.Drop_matching ({ Plan.srcs = Some [ 0 ]; dsts = None }, 40);
    };
    { Plan.at = 42; action = Plan.Duplicate_matching (Plan.any, 2, 15) };
    {
      Plan.at = 50;
      action = Plan.Delay_spike ({ Plan.srcs = None; dsts = Some [ 2; 3 ] }, 25, 30);
    };
    { Plan.at = 60; action = Plan.Heal };
    { Plan.at = 75; action = Plan.Restart 1 };
  ]

let storage_plan : Plan.t =
  [
    { Plan.at = 5; action = Plan.Torn_write (Some [ 0; 2 ], 30) };
    { Plan.at = 12; action = Plan.Sync_loss (None, 25) };
    { Plan.at = 20; action = Plan.Io_error (Some [ 1 ], 40) };
    { Plan.at = 33; action = Plan.Disk_stall (None, 50, 60) };
  ]

let validate_accepts_well_formed () =
  check (Alcotest.list Alcotest.string) "no problems" []
    (Plan.validate ~n:4 sample_plan);
  check (Alcotest.list Alcotest.string) "storage plan ok" []
    (Plan.validate ~n:4 storage_plan)

let validate_rejects_ill_formed () =
  let bad (plan : Plan.t) what =
    check Alcotest.bool what true (Plan.validate ~n:4 plan <> [])
  in
  bad [ { Plan.at = -1; action = Plan.Heal } ] "negative time";
  bad
    [
      { Plan.at = 9; action = Plan.Heal }; { Plan.at = 3; action = Plan.Heal };
    ]
    "out of order";
  bad [ { Plan.at = 0; action = Plan.Crash 7 } ] "pid out of range";
  bad
    [
      { Plan.at = 0; action = Plan.Crash 1 };
      { Plan.at = 5; action = Plan.Crash 1 };
    ]
    "double crash";
  bad [ { Plan.at = 0; action = Plan.Restart 2 } ] "restart of live node";
  bad
    [ { Plan.at = 0; action = Plan.Partition [ [ 0; 1 ]; [ 1; 2 ] ] } ]
    "overlapping partition groups";
  bad
    [ { Plan.at = 0; action = Plan.Drop_matching (Plan.any, 0) } ]
    "zero-length window";
  bad
    [ { Plan.at = 0; action = Plan.Duplicate_matching (Plan.any, 0, 10) } ]
    "zero copies";
  bad
    [ { Plan.at = 0; action = Plan.Torn_write (Some [ 9 ], 10) } ]
    "disk pid out of range";
  bad
    [ { Plan.at = 0; action = Plan.Sync_loss (Some [], 10) } ]
    "empty disk pid set";
  bad
    [ { Plan.at = 0; action = Plan.Io_error (None, 0) } ]
    "zero-length storage window";
  bad
    [ { Plan.at = 0; action = Plan.Disk_stall (None, 0, 10) } ]
    "zero stall extra"

(* --- plan: serialization ------------------------------------------------ *)

let roundtrip_preserves_plan () =
  let text = Plan.to_string sample_plan in
  check Alcotest.bool "text is non-trivial" true (String.length text > 40);
  let back = Plan.of_string text in
  check Alcotest.bool "roundtrip identical" true (back = sample_plan);
  check Alcotest.bool "storage actions roundtrip" true
    (Plan.of_string (Plan.to_string storage_plan) = storage_plan)

let of_string_tolerates_comments () =
  let plan =
    Plan.of_string "# a comment\n\n@5 crash 0\n  @9 heal  \n# done\n"
  in
  check Alcotest.bool "parsed both steps" true
    (plan
    = [
        { Plan.at = 5; action = Plan.Crash 0 };
        { Plan.at = 9; action = Plan.Heal };
      ])

let of_string_rejects_garbage () =
  let rejects text =
    match Plan.of_string text with
    | exception Plan.Parse_error _ -> ()
    | _ -> Alcotest.failf "parsed garbage %S" text
  in
  rejects "crash 0";
  rejects "@x crash 0";
  rejects "@5 explode 3";
  rejects "@5 drop src=0 for 10";
  rejects "@5 dup src=* dst=* for 10"

(* --- generator ---------------------------------------------------------- *)

let prop_generated_plans_well_formed =
  QCheck.Test.make ~name:"generated plans are well-formed" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 9))
    (fun (seed, n) ->
      let plan = Gen.generate (Gen.default ~n) ~seed in
      Plan.validate ~n plan = [])

let prop_generated_plans_roundtrip =
  QCheck.Test.make ~name:"generated plans roundtrip through text" ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 9))
    (fun (seed, n) ->
      let plan = Gen.generate (Gen.default ~n) ~seed in
      Plan.of_string (Plan.to_string plan) = plan)

let prop_benign_plans_go_quiet =
  QCheck.Test.make ~name:"benign plans end all faults before the horizon"
    ~count:200
    QCheck.(pair (int_range 1 1_000_000) (int_range 2 7))
    (fun (seed, n) ->
      let p = { (Gen.default ~n) with Gen.benign = true } in
      match Plan.quiet_after (Gen.generate p ~seed) with
      | Some h -> h < p.Gen.horizon
      | None -> false)

let generation_is_deterministic () =
  let p = Gen.default ~n:5 in
  check Alcotest.bool "same seed, same plan" true
    (Gen.generate p ~seed:42 = Gen.generate p ~seed:42);
  (* sanity: some nearby seed differs, or the generator is a constant *)
  check Alcotest.bool "different seeds eventually differ" true
    (List.exists
       (fun s -> Gen.generate p ~seed:s <> Gen.generate p ~seed:42)
       [ 1; 2; 3; 4; 5 ])

(* --- interpreter on a bare network -------------------------------------- *)

let interp_drives_bare_net () =
  let plan : Plan.t =
    [
      { Plan.at = 10; action = Plan.Crash 1 };
      { Plan.at = 20; action = Plan.Partition [ [ 0; 2 ]; [ 3 ] ] };
      { Plan.at = 40; action = Plan.Heal };
      { Plan.at = 50; action = Plan.Restart 1 };
    ]
  in
  let eng = Dsim.Engine.create ~seed:3L () in
  let net = Netsim.Async_net.create eng ~n:4 ~latency:(Netsim.Latency.Fixed 1) () in
  Interp.schedule ~engine:eng (Interp.handle_of_net net) plan;
  (* probes at characteristic times *)
  let probe at f = Dsim.Engine.schedule eng ~delay:at f in
  let crashed_mid = ref false and cut_mid = ref false in
  probe 15 (fun () -> crashed_mid := Netsim.Async_net.is_crashed net 1);
  probe 25 (fun () ->
      Netsim.Async_net.send net ~src:0 ~dst:3 "cross-cut";
      cut_mid := true);
  probe 45 (fun () -> Netsim.Async_net.send net ~src:0 ~dst:3 "healed");
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  check Alcotest.bool "crash step fired" true !crashed_mid;
  check Alcotest.bool "restart step fired" false (Netsim.Async_net.is_crashed net 1);
  check Alcotest.bool "probe ran" true !cut_mid;
  let got =
    List.map (fun e -> e.Netsim.Async_net.payload) (Netsim.Async_net.inbox net 3)
  in
  check (Alcotest.list Alcotest.string) "partition dropped, heal restored"
    [ "healed" ] got;
  check Alcotest.bool "nemesis steps traced" true
    (Dsim.Trace.count (Dsim.Engine.trace eng) "nemesis" = 4)

let policy_windows_apply_by_send_time () =
  let plan : Plan.t =
    [
      {
        Plan.at = 100;
        action = Plan.Drop_matching ({ Plan.srcs = Some [ 0 ]; dsts = None }, 50);
      };
      { Plan.at = 100; action = Plan.Duplicate_matching (Plan.any, 3, 50) };
      { Plan.at = 200; action = Plan.Delay_spike (Plan.any, 77, 10) };
    ]
  in
  let policy = Interp.policy plan in
  let env ~src ~dst ~at : string Netsim.Async_net.envelope =
    { env_id = 0; src; dst; sent_at = at; payload = "m" }
  in
  check Alcotest.bool "before any window: deliver" true
    (policy (env ~src:0 ~dst:1 ~at:99) = Netsim.Async_net.Deliver);
  check Alcotest.bool "drop window, matching src" true
    (policy (env ~src:0 ~dst:1 ~at:100) = Netsim.Async_net.Drop);
  check Alcotest.bool "same window, other src falls to dup rule" true
    (policy (env ~src:2 ~dst:1 ~at:120) = Netsim.Async_net.Duplicate 3);
  check Alcotest.bool "window end is exclusive" true
    (policy (env ~src:0 ~dst:1 ~at:150) = Netsim.Async_net.Deliver);
  check Alcotest.bool "later delay window" true
    (policy (env ~src:0 ~dst:1 ~at:205) = Netsim.Async_net.Delay_extra 77)

(* --- campaign over the RSM ---------------------------------------------- *)

let campaign_smoke () =
  let cfg =
    { (Campaign.default_config ~n:4 ()) with Campaign.plans = 12; first_seed = 7 }
  in
  let r = Campaign.run cfg in
  let failing gate = List.length (Sweep.failing gate r) in
  let injected = List.concat_map (fun o -> o.Campaign.plan) r.Sweep.outcomes in
  check Alcotest.int "all runs executed" 12 (Sweep.runs r);
  check Alcotest.int "no safety failures" 0 (failing (fun o -> o.Campaign.safety));
  check Alcotest.int "no incomplete runs" 0 (failing (fun o -> o.Campaign.live));
  check Alcotest.int "coverage sums to faults injected" (Plan.length injected)
    (List.fold_left (fun a (_, c) -> a + c) 0 (Plan.count_kinds injected));
  check Alcotest.bool "some faults were actually injected" true
    (Plan.length injected > 0)

let campaign_replay_is_deterministic () =
  let cfg = Campaign.default_config ~n:4 () in
  let plan = Campaign.plan_for cfg ~seed:11 in
  let r1 = Campaign.run_plan cfg ~backend:Rsm.Backend.ben_or ~seed:11 plan in
  let r2 = Campaign.run_plan cfg ~backend:Rsm.Backend.ben_or ~seed:11 plan in
  check Alcotest.int "same acked" r1.Rsm.Runner.acked r2.Rsm.Runner.acked;
  check Alcotest.int "same virtual time" r1.Rsm.Runner.virtual_time
    r2.Rsm.Runner.virtual_time;
  check Alcotest.int "same slots" r1.Rsm.Runner.slots r2.Rsm.Runner.slots;
  check Alcotest.int "same messages" r1.Rsm.Runner.messages_sent
    r2.Rsm.Runner.messages_sent

(* Storage windows compile to a time-keyed Store.Policy. *)
let store_policy_compiles_windows () =
  let p = Interp.store_policy storage_plan in
  check Alcotest.bool "torn applies to pid 0 inside window" true
    (Store.Policy.torn_write p ~pid:0 ~now:10);
  check Alcotest.bool "torn skips pid 1" false
    (Store.Policy.torn_write p ~pid:1 ~now:10);
  check Alcotest.bool "torn window end exclusive" false
    (Store.Policy.torn_write p ~pid:0 ~now:35);
  check Alcotest.bool "sync loss hits everyone" true
    (Store.Policy.sync_lost p ~pid:3 ~now:12);
  check Alcotest.bool "io error windowed to pid 1" true
    (Store.Policy.io_erroring p ~pid:1 ~now:30);
  check Alcotest.int "stall sums matching extras" 50
    (Store.Policy.stall_of p ~pid:0 ~now:40);
  check Alcotest.int "no stall outside window" 0
    (Store.Policy.stall_of p ~pid:0 ~now:100);
  check Alcotest.bool "network-only plan compiles to none" true
    (Store.Policy.is_none (Interp.store_policy sample_plan))

(* Storage-fault campaign: minority crashes + disk faults across all
   three backends must never cost durability — every acked command is
   recoverable (the PR's acceptance property, scaled down for CI; the
   oocon binary runs the 100-plan version). *)
let storage_campaign_durability () =
  let cfg =
    {
      (Campaign.default_config ~n:4 ()) with
      Campaign.backends = Rsm.Backend.all;
      plans = 7;
      first_seed = 3;
      storage = true;
    }
  in
  let r = Campaign.run cfg in
  let failing gate = List.length (Sweep.failing gate r) in
  check Alcotest.int "all runs executed"
    (7 * List.length Rsm.Backend.all)
    (Sweep.runs r);
  check Alcotest.int "no durability failures" 0
    (failing (fun o -> o.Campaign.durable));
  check Alcotest.int "no safety failures" 0 (failing (fun o -> o.Campaign.safety));
  let coverage =
    Plan.count_kinds (List.concat_map (fun o -> o.Campaign.plan) r.Sweep.outcomes)
  in
  let storage_faults =
    List.fold_left
      (fun a k -> a + List.assoc k coverage)
      0
      [ "torn"; "sync-loss"; "io-err"; "stall" ]
  in
  check Alcotest.bool "storage faults were actually injected" true
    (storage_faults > 0)

(* --- liveness: quiet-horizon plans drain -------------------------------- *)

(* Under any generated plan whose faults all end (heal + restarts) before
   a quiet horizon, the Ben-Or-backed RSM still completes every client
   command: all acked, applied at every live replica, no safety
   violations.  This is the campaign analogue of the checker's
   completeness lemma. *)
let prop_liveness_under_benign_plans =
  QCheck.Test.make ~name:"benign plans never cost liveness (ben-or RSM)"
    ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let cfg = Campaign.default_config ~n:4 () in
      let cfg =
        {
          cfg with
          Campaign.profile = { cfg.Campaign.profile with Gen.benign = true };
        }
      in
      let plan = Campaign.plan_for cfg ~seed in
      QCheck.assume (Plan.quiet_after plan <> None);
      let r = Campaign.run_plan cfg ~backend:Rsm.Backend.ben_or ~seed plan in
      Campaign.safety_ok r && Campaign.complete r)

(* --- shrinking ---------------------------------------------------------- *)

(* A deliberately under-provisioned campaign: every replica may crash, so
   some seeded plan kills the whole cluster and the workload cannot
   drain.  The shrinker must reduce that plan to a tiny core (the fatal
   crashes) that still reproduces deterministically. *)
let shrinker_minimizes_failing_plan () =
  let n = 3 in
  let cfg =
    {
      (Campaign.default_config ~n ()) with
      Campaign.profile =
        { (Gen.default ~n) with Gen.max_down = n; max_actions = 12 };
      max_events = 120_000;
      ack_timeout = 200;
    }
  in
  let backend = Rsm.Backend.ben_or in
  let failing r = not (Campaign.complete r) in
  (* scan seeds for a failing plan, as the campaign runner would *)
  let rec find seed =
    if seed > 400 then Alcotest.fail "no failing plan in 400 seeds"
    else
      let plan = Campaign.plan_for cfg ~seed in
      if failing (Campaign.run_plan cfg ~backend ~seed plan) then (seed, plan)
      else find (seed + 1)
  in
  let seed, plan = find 1 in
  let oracle =
    { Shrink.run = (fun p -> Campaign.run_plan cfg ~backend ~seed p); failing }
  in
  let s = Shrink.shrink oracle plan in
  check Alcotest.bool
    (Printf.sprintf "shrunk to <= 3 actions (got %d from %d)"
       (Plan.length s.Shrink.plan) s.Shrink.reduced_from)
    true
    (Plan.length s.Shrink.plan <= 3);
  check Alcotest.bool "shrunk plan is still well-formed-ish" true
    (Plan.length s.Shrink.plan > 0);
  (* the minimized plan still fails, deterministically: two replays agree *)
  let r1 = Campaign.run_plan cfg ~backend ~seed s.Shrink.plan in
  let r2 = Campaign.run_plan cfg ~backend ~seed s.Shrink.plan in
  check Alcotest.bool "still failing" true (failing r1);
  check Alcotest.int "deterministic replay: acked" r1.Rsm.Runner.acked
    r2.Rsm.Runner.acked;
  check Alcotest.int "deterministic replay: virtual time"
    r1.Rsm.Runner.virtual_time r2.Rsm.Runner.virtual_time;
  (* 1-minimality: removing any single remaining action repairs the run *)
  List.iteri
    (fun i _ ->
      let weaker = List.filteri (fun j _ -> j <> i) s.Shrink.plan in
      check Alcotest.bool
        (Printf.sprintf "dropping action %d repairs the run" i)
        false
        (failing (Campaign.run_plan cfg ~backend ~seed weaker)))
    s.Shrink.plan

(* Shrinking a storage-fault counterexample: a torn-write window across
   every disk plus a full-cluster crash–restart makes acked commands
   unrecoverable (torn writes are silent at fsync time, so the honest
   ack gate is fooled) — a real durability violation, not a checker bug.
   The shrinker must keep the plan failing while discarding what the
   failure does not need. *)
let shrinker_minimizes_torn_write_plan () =
  let n = 3 in
  let store =
    { Rsm.Runner.default_store_config with Rsm.Runner.snapshot_every = 0 }
  in
  let run plan =
    fst
      (Workload.Rsm_load.run_one ~n ~clients:2 ~commands:3 ~batch:4 ~seed:5
         ~trace_capacity:2_000 ~ack_timeout:300 ~max_events:300_000
         ~inject:(Interp.install_rsm plan)
         ~store ~backend:Rsm.Backend.ben_or ())
  in
  let failing (r : _ Rsm.Runner.report) = r.Rsm.Runner.durability <> [] in
  let plan : Plan.t =
    [
      { Plan.at = 0; action = Plan.Torn_write (None, 300) };
      { Plan.at = 10; action = Plan.Sync_loss (Some [ 1 ], 20) };
      { Plan.at = 40; action = Plan.Disk_stall (None, 15, 30) };
      { Plan.at = 150; action = Plan.Crash 0 };
      { Plan.at = 150; action = Plan.Crash 1 };
      { Plan.at = 150; action = Plan.Crash 2 };
      { Plan.at = 400; action = Plan.Restart 0 };
      { Plan.at = 400; action = Plan.Restart 1 };
      { Plan.at = 400; action = Plan.Restart 2 };
    ]
  in
  check (Alcotest.list Alcotest.string) "plan well-formed" []
    (Plan.validate ~n plan);
  check Alcotest.bool "the torn-write plan fails durability" true
    (failing (run plan));
  let oracle = { Shrink.run; failing } in
  let s = Shrink.shrink oracle plan in
  check Alcotest.bool
    (Printf.sprintf "shrunk (got %d from %d)" (Plan.length s.Shrink.plan)
       s.Shrink.reduced_from)
    true
    (Plan.length s.Shrink.plan < Plan.length plan);
  check Alcotest.bool "minimized plan still fails" true (failing (run s.Shrink.plan));
  check Alcotest.bool "the torn window is load-bearing" true
    (List.exists
       (fun { Plan.action; _ } ->
         match action with Plan.Torn_write _ -> true | _ -> false)
       s.Shrink.plan)

let shrink_rejects_passing_plan () =
  let oracle = { Shrink.run = (fun _ -> ()); failing = (fun () -> false) } in
  match Shrink.shrink oracle sample_plan with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "shrink must refuse a plan that does not fail"

(* --- the sharded campaign ------------------------------------------ *)

let small_shard_cfg ?(plans = 6) ?(storage = false) () =
  {
    (Shard_campaign.default_config ~shards:2 ()) with
    Shard_campaign.plans;
    first_seed = 5;
    clients = 8;
    ops_per_client = 2;
    storage;
  }

(* Every step of every per-shard plan the campaign installed. *)
let shard_injected r =
  List.concat_map
    (fun o -> List.concat (Array.to_list o.Shard_campaign.plans))
    r.Sweep.outcomes

let shard_campaign_smoke () =
  let r = Shard_campaign.run (small_shard_cfg ()) in
  let failing gate = List.length (Sweep.failing gate r) in
  let injected = shard_injected r in
  check Alcotest.int "all runs executed" 6 (Sweep.runs r);
  check Alcotest.int "no safety failures" 0
    (failing (fun o -> o.Shard_campaign.safety));
  check Alcotest.int "no atomicity failures" 0
    (failing (fun o -> o.Shard_campaign.atomic));
  check Alcotest.int "no incomplete runs" 0
    (failing (fun o -> o.Shard_campaign.live));
  check Alcotest.int "coverage sums to faults injected" (Plan.length injected)
    (List.fold_left (fun a (_, c) -> a + c) 0 (Plan.count_kinds injected));
  check Alcotest.bool "some faults were actually injected" true
    (Plan.length injected > 0)

let shard_campaign_storage_durability () =
  let r = Shard_campaign.run (small_shard_cfg ~plans:4 ~storage:true ()) in
  let failing gate = List.length (Sweep.failing gate r) in
  check Alcotest.int "all runs executed" 4 (Sweep.runs r);
  check Alcotest.int "no durability failures" 0
    (failing (fun o -> o.Shard_campaign.durable));
  check Alcotest.int "no atomicity failures" 0
    (failing (fun o -> o.Shard_campaign.atomic));
  let coverage = Plan.count_kinds (shard_injected r) in
  let storage_faults =
    List.fold_left
      (fun a k -> a + List.assoc k coverage)
      0
      [ "torn"; "sync-loss"; "io-err"; "stall" ]
  in
  check Alcotest.bool "storage faults were actually injected" true
    (storage_faults > 0)

let shard_campaign_jobs_independent () =
  let stable r =
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    Shard_campaign.pp_report_stable ppf r;
    Format.pp_print_flush ppf ();
    Buffer.contents buf
  in
  let cfg = small_shard_cfg ~plans:4 () in
  check Alcotest.string "stable report identical at jobs=1 and jobs=2"
    (stable (Shard_campaign.run ~jobs:1 cfg))
    (stable (Shard_campaign.run ~jobs:2 cfg))

let suite =
  [
    Alcotest.test_case "validate accepts well-formed" `Quick
      validate_accepts_well_formed;
    Alcotest.test_case "validate rejects ill-formed" `Quick
      validate_rejects_ill_formed;
    Alcotest.test_case "to_string/of_string roundtrip" `Quick
      roundtrip_preserves_plan;
    Alcotest.test_case "of_string tolerates comments" `Quick
      of_string_tolerates_comments;
    Alcotest.test_case "of_string rejects garbage" `Quick of_string_rejects_garbage;
    qtest prop_generated_plans_well_formed;
    qtest prop_generated_plans_roundtrip;
    qtest prop_benign_plans_go_quiet;
    Alcotest.test_case "generation is deterministic" `Quick
      generation_is_deterministic;
    Alcotest.test_case "interp drives a bare net" `Quick interp_drives_bare_net;
    Alcotest.test_case "policy windows by send time" `Quick
      policy_windows_apply_by_send_time;
    Alcotest.test_case "campaign smoke (safety audit)" `Quick campaign_smoke;
    Alcotest.test_case "campaign replay is deterministic" `Quick
      campaign_replay_is_deterministic;
    qtest prop_liveness_under_benign_plans;
    Alcotest.test_case "shrinker minimizes a failing plan" `Quick
      shrinker_minimizes_failing_plan;
    Alcotest.test_case "shrinker minimizes a torn-write plan" `Quick
      shrinker_minimizes_torn_write_plan;
    Alcotest.test_case "shrink rejects a passing plan" `Quick
      shrink_rejects_passing_plan;
    Alcotest.test_case "store policy compiles windows" `Quick
      store_policy_compiles_windows;
    Alcotest.test_case "storage campaign durability" `Quick
      storage_campaign_durability;
    Alcotest.test_case "shard campaign smoke" `Quick shard_campaign_smoke;
    Alcotest.test_case "shard campaign storage durability" `Quick
      shard_campaign_storage_durability;
    Alcotest.test_case "shard campaign independent of jobs" `Quick
      shard_campaign_jobs_independent;
  ]
