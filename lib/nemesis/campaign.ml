type config = {
  backends : Rsm.Backend.t list;
  plans : int;
  first_seed : int;
  n : int;
  clients : int;
  commands : int;
  batch : int;
  profile : Gen.profile;
  ack_timeout : int;
  max_events : int;
  storage : bool;
}

let default_config ?(n = 5) () =
  {
    backends = [ Rsm.Backend.ben_or ];
    plans = 50;
    first_seed = 1;
    n;
    clients = 3;
    commands = 3;
    batch = 4;
    profile = Gen.default ~n;
    ack_timeout = 400;
    max_events = 400_000;
    storage = false;
  }

let safety_ok (r : _ Rsm.Runner.report) =
  r.Rsm.Runner.violations = [] && r.Rsm.Runner.digests_agree

let complete (r : _ Rsm.Runner.report) =
  r.Rsm.Runner.completeness = []
  && r.Rsm.Runner.acked = r.Rsm.Runner.submitted

let durable_ok (r : _ Rsm.Runner.report) = r.Rsm.Runner.durability = []

type outcome = {
  backend_name : string;
  plan_seed : int;
  plan : Plan.t;
  safety : bool;
  live : bool;
  durable : bool;
  acked : int;
  submitted : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

let run_plan ?(quiet = true) cfg ~backend ~seed plan =
  fst
    (Workload.Rsm_load.run_one ~n:cfg.n ~clients:cfg.clients
       ~commands:cfg.commands ~batch:cfg.batch ~seed ~trace_capacity:2_000
       ~quiet ~ack_timeout:cfg.ack_timeout ~max_events:cfg.max_events
       ~inject:(Interp.install_rsm plan)
       ?store:
         (if cfg.storage then Some Rsm.Runner.default_store_config else None)
       ~backend ())

let plan_for cfg ~seed =
  Gen.generate
    { cfg.profile with n = cfg.n; storage = cfg.profile.storage || cfg.storage }
    ~seed

include Sweep.Make (struct
  type nonrec config = config
  type key = Rsm.Backend.t * int
  type nonrec outcome = outcome

  let keys cfg =
    List.concat_map
      (fun backend -> List.init cfg.plans (fun k -> (backend, cfg.first_seed + k)))
      cfg.backends

  let seed = snd

  let run_key cfg (backend, seed) =
    let plan = plan_for cfg ~seed in
    let r = run_plan cfg ~backend ~seed plan in
    {
      backend_name = Rsm.Backend.name backend;
      plan_seed = seed;
      plan;
      safety = safety_ok r;
      live = complete r;
      durable = durable_ok r;
      acked = r.Rsm.Runner.acked;
      submitted = r.Rsm.Runner.submitted;
      virtual_time = r.Rsm.Runner.virtual_time;
      engine_outcome = r.Rsm.Runner.engine_outcome;
    }

  let headline r =
    Sweep.fault_headline "nemesis" r (List.map (fun o -> o.plan) r.Sweep.outcomes)

  let pp_body ppf r =
    Sweep.pp_coverage ppf (List.map (fun o -> o.plan) r.Sweep.outcomes);
    let safety = Sweep.failing (fun o -> o.safety) r
    and durability = Sweep.failing (fun o -> o.durable) r in
    Format.fprintf ppf
      "  safety failures: %d, incomplete runs: %d, durability failures: %d@."
      (List.length safety)
      (List.length (Sweep.failing (fun o -> o.live) r))
      (List.length durability);
    let dump tag =
      List.iter (fun o ->
          Format.fprintf ppf "  %s %s seed=%d (%d actions, %d/%d acked)@." tag
            o.backend_name o.plan_seed (Plan.length o.plan) o.acked o.submitted)
    in
    dump "SAFETY" safety;
    dump "DURABILITY" durability
end)
