type config = {
  plans : int;
  first_seed : int;
  n : int;
  params : Detect.Timeout.params list;
  mutant : Detect.Oracle.mutant;
  profile : Gen.profile;
}

let default_config ?(n = 4) () =
  {
    plans = 50;
    first_seed = 1;
    n;
    params = [ Detect.Timeout.default ];
    mutant = Detect.Oracle.Honest;
    profile = Gen.default ~n;
  }

let horizon_slack = 3000

(* Does the plan leave the network in a state where the detector can
   stabilise and a quorum can form?  No unhealed cut, and a strict
   majority of nodes up at the end.  (quiet_after is too strong: a
   permanently-crashed minority still stabilises.) *)
let eventually_stable ~n plan =
  let down = Hashtbl.create 8 in
  let cut = ref false in
  List.iter
    (fun { Plan.action; _ } ->
      match action with
      | Plan.Crash p -> Hashtbl.replace down p ()
      | Plan.Restart p -> Hashtbl.remove down p
      | Plan.Partition _ -> cut := true
      | Plan.Heal -> cut := false
      | _ -> ())
    plan;
  (not !cut) && 2 * (n - Hashtbl.length down) > n

type outcome = {
  plan_seed : int;
  params_ix : int;
  plan : Plan.t;
  stable : bool;
  decided : bool;
  agreement : bool;
  validity : bool;
  livelock : bool;
  decision_latency : int option;
  suspicions : int;
  false_suspicions : int;
  omega_stable_at : int option;
  heartbeats : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

let plan_for cfg ~seed = Gen.generate { cfg.profile with Gen.n = cfg.n } ~seed

let run_plan ?(quiet = true) cfg ~params ~seed plan =
  Detect.Runner.run ~n:cfg.n
    ~seed:(Int64.of_int seed)
    ~params ~mutant:cfg.mutant
    ~horizon:(cfg.profile.Gen.horizon + horizon_slack)
    ~max_events:400_000 ~quiet
    ~policy:(Interp.policy plan) ~install:(Interp.install_detect plan) ()

let outcome_of_run cfg ~params_ix ~seed plan (r : Detect.Runner.report) =
  let stable = eventually_stable ~n:cfg.n plan in
  {
    plan_seed = seed;
    params_ix;
    plan;
    stable;
    decided = r.Detect.Runner.all_live_decided;
    agreement = r.Detect.Runner.agreement_ok;
    validity = r.Detect.Runner.validity_ok;
    livelock = stable && not r.Detect.Runner.all_live_decided;
    decision_latency = r.Detect.Runner.first_decision;
    suspicions = r.Detect.Runner.suspicions;
    false_suspicions = r.Detect.Runner.false_suspicions;
    omega_stable_at = r.Detect.Runner.omega_stable_at;
    heartbeats = r.Detect.Runner.heartbeats_sent;
    virtual_time = r.Detect.Runner.virtual_time;
    engine_outcome = r.Detect.Runner.outcome;
  }

include Sweep.Make (struct
  type nonrec config = config
  type key = int * int
  type nonrec outcome = outcome

  let keys cfg =
    if cfg.params = [] then
      invalid_arg "Detect_campaign.run: empty parameter grid";
    List.concat
      (List.mapi
         (fun ix _ -> List.init cfg.plans (fun k -> (ix, cfg.first_seed + k)))
         cfg.params)

  let seed = snd

  let run_key cfg (params_ix, seed) =
    let plan = plan_for cfg ~seed in
    outcome_of_run cfg ~params_ix ~seed plan
      (run_plan cfg ~params:(List.nth cfg.params params_ix) ~seed plan)

  let headline r =
    Sweep.fault_headline "detect" r (List.map (fun o -> o.plan) r.Sweep.outcomes)

  let pp_body ppf r =
    let sum f = List.fold_left (fun a o -> a + f o) 0 r.Sweep.outcomes in
    let count p = sum (fun o -> if p o then 1 else 0) in
    (* mean of the [Some] values, "-" when there are none *)
    let mean f =
      match count (fun o -> f o <> None) with
      | 0 -> "-"
      | k ->
          Printf.sprintf "%.1f"
            (float_of_int (sum (fun o -> Option.value (f o) ~default:0))
            /. float_of_int k)
    in
    let suspicions = sum (fun o -> o.suspicions)
    and false_suspicions = sum (fun o -> o.false_suspicions)
    and agreement = Sweep.failing (fun o -> o.agreement) r
    and validity = Sweep.failing (fun o -> o.validity) r
    and livelocks = Sweep.failing (fun o -> not o.livelock) r in
    Sweep.pp_coverage ppf (List.map (fun o -> o.plan) r.Sweep.outcomes);
    Format.fprintf ppf
      "  stable plans: %d/%d, decided runs: %d, livelocked stable runs: %d@."
      (count (fun o -> o.stable))
      (Sweep.runs r)
      (count (fun o -> o.decided))
      (List.length livelocks);
    Format.fprintf ppf "  agreement failures: %d, validity failures: %d@."
      (List.length agreement) (List.length validity);
    Format.fprintf ppf "  suspicions: %d (false: %d, rate %.3f), heartbeats: %d@."
      suspicions false_suspicions
      (if suspicions = 0 then 0.
       else float_of_int false_suspicions /. float_of_int suspicions)
      (sum (fun o -> o.heartbeats));
    Format.fprintf ppf
      "  mean decision latency: %s, mean time-to-omega-stability: %s@."
      (mean (fun o -> o.decision_latency))
      (mean (fun o -> o.omega_stable_at));
    let dump fmt =
      List.iter (fun o -> Format.fprintf ppf fmt o.params_ix o.plan_seed)
    in
    dump "  AGREEMENT VIOLATION: params %d seed %d@." agreement;
    dump "  VALIDITY VIOLATION: params %d seed %d@." validity;
    dump "  LIVELOCK: params %d seed %d (stable plan, undecided)@." livelocks
end)
