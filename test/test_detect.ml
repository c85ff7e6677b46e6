(* Tests for the failure-detector subsystem: adaptive timeout algebra,
   benign-run accuracy, the indulgence contract of the Omega-driven
   backend (safety unconditional, liveness once the detector
   stabilises), detector-accuracy campaigns and their determinism
   across job counts, the §12 partition-stall regression, plan
   validation of orphan heals/restarts, shrinker validity, and the
   omega-ac explorer models. *)

module Timeout = Detect.Timeout
module Oracle = Detect.Oracle
module Runner = Detect.Runner
module Plan = Nemesis.Plan
module Gen = Nemesis.Gen
module Campaign = Nemesis.Campaign
module Detect_campaign = Nemesis.Detect_campaign

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- timeout algebra ---------------------------------------------------- *)

let params_gen =
  QCheck.Gen.(
    let* period = int_range 1 100 in
    let* initial = int_range 1 500 in
    let* den = int_range 1 8 in
    let* num = int_range (den + 1) 16 in
    let* cap = int_range initial (initial + 2000) in
    let* shrink = int_range 0 50 in
    return
      { Timeout.period; initial; backoff_num = num; backoff_den = den; cap; shrink })

let params_arb = QCheck.make ~print:(fun _ -> "<params>") params_gen

(* Consecutive suspicions grow the timeout monotonically and saturate at
   the cap: the adaptive schedule never shrinks while a peer keeps
   getting suspected, and never exceeds the configured bound. *)
let prop_timeout_monotone =
  QCheck.Test.make ~name:"suspicion timeouts are monotone and cap-bounded"
    ~count:300 params_arb (fun p ->
      assert (Timeout.valid p);
      let t = ref p.Timeout.initial in
      let ok = ref true in
      for _ = 1 to 60 do
        let t' = Timeout.after_suspicion p !t in
        if t' < !t || t' > p.Timeout.cap then ok := false;
        t := t'
      done;
      (* sixty consecutive suspicions saturate any cap within 2000 *)
      !ok && !t = p.Timeout.cap)

let prop_late_heartbeat_floor =
  QCheck.Test.make ~name:"late heartbeats never shrink below the initial"
    ~count:300
    QCheck.(pair params_arb (int_range 1 3000))
    (fun (p, t) ->
      let t' = Timeout.after_late_heartbeat p t in
      t' >= p.Timeout.initial && t' <= max p.Timeout.initial t)

let invalid_params_rejected () =
  check Alcotest.bool "zero period invalid" false
    (Timeout.valid { Timeout.default with Timeout.period = 0 });
  check Alcotest.bool "non-growing backoff invalid" false
    (Timeout.valid
       { Timeout.default with Timeout.backoff_num = 2; backoff_den = 2 });
  check Alcotest.bool "cap below initial invalid" false
    (Timeout.valid { Timeout.default with Timeout.cap = 1 });
  Alcotest.check_raises "runner rejects invalid params"
    (Invalid_argument "Detect.Oracle.create: invalid timeout parameters")
    (fun () ->
      ignore
        (Runner.run ~n:3 ~quiet:true
           ~params:{ Timeout.default with Timeout.period = 0 }
           ()))

(* --- accuracy on benign runs -------------------------------------------- *)

(* With no faults at all, the default parameters leave headroom over the
   worst heartbeat gap (period + max latency jitter), so the detector
   must never suspect anyone — at every seed.  This is the eventual
   accuracy of ◊P made exact on fault-free executions. *)
let prop_fault_free_no_suspicions =
  QCheck.Test.make ~name:"fault-free runs never suspect anyone (any seed)"
    ~count:40
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let r = Runner.run ~n:4 ~seed:(Int64.of_int seed) ~quiet:true () in
      r.Runner.suspicions = 0
      && r.Runner.false_suspicions = 0
      && r.Runner.all_live_decided && r.Runner.agreement_ok)

(* --- single runs: the indulgence contract ------------------------------- *)

let crash_triggers_suspicion () =
  let plan = [ { Plan.at = 5; action = Plan.Crash 3 } ] in
  let r =
    Runner.run ~n:4 ~seed:7L ~quiet:true
      ~policy:(Nemesis.Interp.policy plan)
      ~install:(Nemesis.Interp.install_detect plan)
      ()
  in
  check Alcotest.bool "suspicions recorded" true (r.Runner.suspicions > 0);
  check Alcotest.int "no false suspicions (victim was dead)" 0
    r.Runner.false_suspicions;
  check Alcotest.bool "live majority still decides" true
    r.Runner.all_live_decided;
  check Alcotest.bool "agreement" true r.Runner.agreement_ok;
  check Alcotest.bool "omega stabilised" true (r.Runner.omega_stable_at <> None)

let rotating_starves_liveness_not_safety () =
  let r =
    Runner.run ~n:4 ~seed:3L ~quiet:true ~mutant:Oracle.Rotating ~horizon:1500
      ()
  in
  check Alcotest.bool "no decision under a forever-rotating omega" false
    r.Runner.all_live_decided;
  check Alcotest.bool "agreement survives the lying detector" true
    r.Runner.agreement_ok;
  check Alcotest.bool "validity survives the lying detector" true
    r.Runner.validity_ok

let false_suspect_is_routed_around () =
  (* permanently suspecting a correct process costs nothing but that
     process's coordinatorship: the backend elects someone else *)
  let r =
    Runner.run ~n:4 ~seed:3L ~quiet:true ~mutant:(Oracle.False_suspect 0) ()
  in
  check Alcotest.bool "still decides" true r.Runner.all_live_decided;
  check Alcotest.bool "agreement" true r.Runner.agreement_ok

(* --- campaigns ----------------------------------------------------------- *)

let honest_campaign_has_no_livelocks () =
  let cfg =
    { (Detect_campaign.default_config ~n:4 ()) with Detect_campaign.plans = 25 }
  in
  let r = Detect_campaign.run ~jobs:2 cfg in
  let failing gate = List.length (Nemesis.Sweep.failing gate r) in
  check Alcotest.int "all runs executed" 25 (Nemesis.Sweep.runs r);
  check Alcotest.int "no agreement failures" 0
    (failing (fun o -> o.Detect_campaign.agreement));
  check Alcotest.int "no validity failures" 0
    (failing (fun o -> o.Detect_campaign.validity));
  check Alcotest.int "every stable plan decides (no livelock)" 0
    (failing (fun o -> not o.Detect_campaign.livelock))

let rotating_campaign_flags_liveness_loss () =
  let cfg =
    {
      (Detect_campaign.default_config ~n:4 ()) with
      Detect_campaign.plans = 5;
      mutant = Oracle.Rotating;
    }
  in
  let r = Detect_campaign.run cfg in
  let failing gate = List.length (Nemesis.Sweep.failing gate r) in
  check Alcotest.bool "livelocks flagged" true
    (failing (fun o -> not o.Detect_campaign.livelock) > 0);
  check Alcotest.int "decided runs" 0
    (Nemesis.Sweep.runs r - failing (fun o -> o.Detect_campaign.decided));
  check Alcotest.int "agreement intact under the lying detector" 0
    (failing (fun o -> o.Detect_campaign.agreement))

let campaign_report_stable_across_jobs () =
  let cfg =
    { (Detect_campaign.default_config ~n:4 ()) with Detect_campaign.plans = 12 }
  in
  let render r =
    Format.asprintf "%a" Detect_campaign.pp_report_stable r
  in
  let r1 = render (Detect_campaign.run ~jobs:1 cfg) in
  let r2 = render (Detect_campaign.run ~jobs:2 cfg) in
  check Alcotest.string "stable reports byte-identical at jobs 1 and 2" r1 r2

(* --- §12 regression: partitions stall the RSM until heal ----------------- *)

(* DESIGN §12 once noted that partitions did not perturb the RSM's
   consensus-internal decision traffic: a minority side would happily
   keep deciding slots from its shared proposal cache.  With the
   majority-view gate, a 2|2 split has no majority side, so every slot
   stalls until the heal.  The test reads the group's decided-slot
   count when the cut lands at 5 and again at 600, just before the
   heal.  A replica opens slot s+1 only after applying slot s, so at
   most one slot is in flight at the cut; its gate passed before the
   cut, but it is counted only once its nested runs' charge has
   elapsed, which may be during the split.  No other slot may be
   decided before the heal, and the run must still complete. *)
let partition_stalls_rsm_until_heal () =
  let n = 4 in
  let cfg = { (Campaign.default_config ~n ()) with Campaign.max_events = 500_000 } in
  let plan =
    [
      { Plan.at = 5; action = Plan.Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
      { Plan.at = 600; action = Plan.Heal };
    ]
  in
  check (Alcotest.list Alcotest.string) "plan well-formed" []
    (Plan.validate ~n plan);
  let at_cut = ref (-1) and before_heal = ref (-1) in
  (* Events at one time run in the order they were scheduled: the read
     at 600 goes in before the plan's heal, the read at 5 after its cut. *)
  let inject g =
    let read r () = r := Rsm.Group.slots g in
    Dsim.Engine.schedule (Rsm.Group.engine g) ~delay:600 (read before_heal);
    Nemesis.Interp.install_rsm plan g;
    Dsim.Engine.schedule (Rsm.Group.engine g) ~delay:5 (read at_cut)
  in
  let r, _ =
    Workload.Rsm_load.run_one ~n ~clients:cfg.Campaign.clients
      ~commands:cfg.Campaign.commands ~batch:cfg.Campaign.batch ~seed:1
      ~quiet:true ~ack_timeout:cfg.Campaign.ack_timeout
      ~max_events:cfg.Campaign.max_events ~inject ~backend:Rsm.Backend.ben_or ()
  in
  check Alcotest.bool "completes after the heal" true (Campaign.complete r);
  check Alcotest.bool "safety holds" true (Campaign.safety_ok r);
  check Alcotest.bool "runs past the heal" true (r.Rsm.Runner.virtual_time >= 600);
  check Alcotest.bool
    (Printf.sprintf
       "no slot decided during the quorumless split (%d at the cut, %d at \
        the heal)"
       !at_cut !before_heal)
    true
    (!before_heal <= !at_cut + 1);
  check Alcotest.bool "slots decided after the heal" true
    (r.Rsm.Runner.slots > !before_heal)

(* --- plan validation: orphan restarts and heals -------------------------- *)

let validate_rejects_orphans () =
  let contains needle problems =
    List.exists
      (fun s ->
        let n = String.length needle and l = String.length s in
        let rec scan i =
          i + n <= l && (String.sub s i n = needle || scan (i + 1))
        in
        scan 0)
      problems
  in
  let restart_orphan = [ { Plan.at = 10; action = Plan.Restart 2 } ] in
  check Alcotest.bool "restart of never-crashed rejected" true
    (contains "never-crashed" (Plan.validate ~n:4 restart_orphan));
  let heal_orphan = [ { Plan.at = 10; action = Plan.Heal } ] in
  check Alcotest.bool "heal of never-partitioned rejected" true
    (contains "never-partitioned" (Plan.validate ~n:4 heal_orphan));
  let restart_live =
    [
      { Plan.at = 5; action = Plan.Crash 1 };
      { Plan.at = 10; action = Plan.Restart 1 };
      { Plan.at = 15; action = Plan.Restart 1 };
    ]
  in
  check Alcotest.bool "second restart rejected as restart-of-live" true
    (contains "restart of live" (Plan.validate ~n:4 restart_live));
  let double_heal =
    [
      { Plan.at = 5; action = Plan.Partition [ [ 0; 1 ]; [ 2; 3 ] ] };
      { Plan.at = 10; action = Plan.Heal };
      { Plan.at = 15; action = Plan.Heal };
    ]
  in
  check Alcotest.bool "second heal rejected (no active partition)" true
    (contains "no active partition" (Plan.validate ~n:4 double_heal))

(* --- shrinking preserves validity ---------------------------------------- *)

(* Whatever the oracle, every plan the shrinker hands back must still be
   state-machine consistent and well-formed: no orphaned restarts or
   heals introduced by deleting their partners. *)
let prop_shrunk_plans_stay_valid =
  QCheck.Test.make ~name:"shrunk plans remain consistent and well-formed"
    ~count:60
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let n = 4 in
      let plan = Gen.generate (Gen.default ~n) ~seed in
      let crashes p =
        List.exists
          (fun s -> match s.Plan.action with Plan.Crash _ -> true | _ -> false)
          p
      in
      QCheck.assume (crashes plan);
      (* a cheap deterministic oracle: "fails" iff any crash survives *)
      let oracle = { Nemesis.Shrink.run = Fun.id; failing = crashes } in
      let s = Nemesis.Shrink.shrink oracle plan in
      Plan.consistent s.Nemesis.Shrink.plan
      && Plan.validate ~n s.Nemesis.Shrink.plan = [])

(* --- omega-ac explorer models -------------------------------------------- *)

let omega_ac_clean_explores_clean () =
  let m = Mcheck.Models.omega_ac () in
  let r =
    Mcheck.Explorer.explore ~config:Mcheck.Explorer.default_config m
  in
  check Alcotest.bool "some executions explored" true
    (r.Mcheck.Explorer.r_executions > 1);
  check Alcotest.int "no violations in the indulgent model" 0
    r.Mcheck.Explorer.r_violating

let omega_ac_broken_is_convicted () =
  let m = Mcheck.Models.omega_ac ~broken:true () in
  let r =
    Mcheck.Explorer.explore ~config:Mcheck.Explorer.default_config m
  in
  check Alcotest.bool "suspicion-decides mutant convicted" true
    (r.Mcheck.Explorer.r_violating > 0);
  match r.Mcheck.Explorer.r_counterexample with
  | None -> Alcotest.fail "no counterexample retained"
  | Some x ->
      check Alcotest.bool "agreement violation named" true
        (List.exists
           (fun v ->
             String.length v >= 9 && String.sub v 0 9 = "agreement")
           x.Mcheck.Explorer.x_violations)

let suite =
  [
    qtest prop_timeout_monotone;
    qtest prop_late_heartbeat_floor;
    Alcotest.test_case "invalid detector parameters rejected" `Quick
      invalid_params_rejected;
    qtest prop_fault_free_no_suspicions;
    Alcotest.test_case "crash triggers suspicion, majority decides" `Quick
      crash_triggers_suspicion;
    Alcotest.test_case "rotating mutant starves liveness, not safety" `Quick
      rotating_starves_liveness_not_safety;
    Alcotest.test_case "false-suspect mutant is routed around" `Quick
      false_suspect_is_routed_around;
    Alcotest.test_case "honest campaign: no livelocks, no violations" `Slow
      honest_campaign_has_no_livelocks;
    Alcotest.test_case "rotating campaign flags liveness loss" `Quick
      rotating_campaign_flags_liveness_loss;
    Alcotest.test_case "campaign report stable across job counts" `Slow
      campaign_report_stable_across_jobs;
    Alcotest.test_case "partition stalls RSM slots until heal (§12)" `Quick
      partition_stalls_rsm_until_heal;
    Alcotest.test_case "validate rejects orphan restarts and heals" `Quick
      validate_rejects_orphans;
    qtest prop_shrunk_plans_stay_valid;
    Alcotest.test_case "omega-ac explores clean" `Quick
      omega_ac_clean_explores_clean;
    Alcotest.test_case "omega-ac-broken is convicted" `Quick
      omega_ac_broken_is_convicted;
  ]
