type config = {
  backends : Rsm.Backend.t list;
  plans : int;
  first_seed : int;
  shards : int;
  replicas : int;
  clients : int;
  ops_per_client : int;
  keys : int;
  tx_pct : int;
  batch : int;
  max_events : int;
  storage : bool;
  broken_2pc : bool;
}

let default_config ?(shards = 4) ?(replicas = 3) () =
  {
    backends = [ Rsm.Backend.ben_or ];
    plans = 30;
    first_seed = 1;
    shards;
    replicas;
    clients = 12;
    ops_per_client = 3;
    keys = 64;
    tx_pct = 25;
    batch = 8;
    max_events = 4_000_000;
    storage = false;
    broken_2pc = false;
  }

type outcome = {
  backend_name : string;
  plan_seed : int;
  plans : Plan.t array;
  safety : bool;
  atomic : bool;
  live : bool;
  durable : bool;
  total_ops : int;
  completed : int;
  txs_committed : int;
  txs_aborted : int;
  virtual_time : int;
  engine_outcome : Dsim.Engine.outcome;
}

(* One plan per shard, all derived from the campaign seed; the prime
   stride keeps per-shard streams disjoint across neighbouring seeds.
   The plans are benign: every shard-local disturbance heals before the
   horizon, so clean backends should also stay live. *)
let plans_for cfg ~seed =
  let profile =
    {
      (Gen.default ~n:cfg.replicas) with
      Gen.benign = true;
      storage = cfg.storage;
    }
  in
  Array.init cfg.shards (fun shard ->
      Gen.generate profile ~seed:((seed * 1009) + shard))

(* The ack timeout is Shard.Runner's default (2,000); the run is quiet. *)
let run_plans cfg ~backend ~seed plans =
  let load =
    {
      Workload.Load.default with
      Workload.Load.clients = cfg.clients;
      ops_per_client = cfg.ops_per_client;
      keys = cfg.keys;
      tx_pct = cfg.tx_pct;
    }
  in
  Shard.Runner.run
    (Workload.Shard_load.config ~shards:cfg.shards ~replicas:cfg.replicas
       ~batch:cfg.batch ~seed ~load ~max_events:cfg.max_events
       ~broken_2pc:cfg.broken_2pc
       ~inject:(Interp.install_shard plans)
       ?store:
         (if cfg.storage then Some Rsm.Runner.default_store_config else None)
       ~backend ())

let outcome_of_report ~backend ~seed plans (r : Shard.Runner.report) =
  let all f = Array.for_all f r.Shard.Runner.shard_reports in
  let total_ops =
    r.Shard.Runner.singles_submitted + r.Shard.Runner.txs_started
  in
  let completed =
    r.Shard.Runner.singles_acked + r.Shard.Runner.txs_committed
    + r.Shard.Runner.txs_aborted
  in
  {
    backend_name = Rsm.Backend.name backend;
    plan_seed = seed;
    plans;
    safety =
      all (fun sr ->
          sr.Shard.Runner.sr_violations = [] && sr.Shard.Runner.sr_digests_agree);
    atomic = r.Shard.Runner.atomicity = [];
    live =
      completed = total_ops
      && r.Shard.Runner.tx_completeness = []
      && all (fun sr -> sr.Shard.Runner.sr_completeness = []);
    durable = all (fun sr -> sr.Shard.Runner.sr_durability = []);
    total_ops;
    completed;
    txs_committed = r.Shard.Runner.txs_committed;
    txs_aborted = r.Shard.Runner.txs_aborted;
    virtual_time = r.Shard.Runner.virtual_time;
    engine_outcome = r.Shard.Runner.engine_outcome;
  }

include Sweep.Make (struct
  type nonrec config = config
  type key = Rsm.Backend.t * int
  type nonrec outcome = outcome

  let keys (cfg : config) =
    List.concat_map
      (fun backend -> List.init cfg.plans (fun k -> (backend, cfg.first_seed + k)))
      cfg.backends

  let seed = snd

  let run_key cfg (backend, seed) =
    let plans = plans_for cfg ~seed in
    outcome_of_report ~backend ~seed plans
      (run_plans cfg ~backend ~seed plans)

  let all_plans r = List.concat_map (fun o -> Array.to_list o.plans) r.Sweep.outcomes
  let headline r = Sweep.fault_headline "shard" r (all_plans r)

  let pp_body ppf r =
    Sweep.pp_coverage ppf (all_plans r);
    let safety = Sweep.failing (fun o -> o.safety) r
    and atomicity = Sweep.failing (fun o -> o.atomic) r
    and durability = Sweep.failing (fun o -> o.durable) r in
    Format.fprintf ppf
      "  safety: %d, atomicity: %d, incomplete: %d, durability: %d@."
      (List.length safety) (List.length atomicity)
      (List.length (Sweep.failing (fun o -> o.live) r))
      (List.length durability);
    let dump tag =
      List.iter (fun o ->
          Format.fprintf ppf "  %s %s seed=%d (%d/%d done, %d/%d tx ok/ab)@." tag
            o.backend_name o.plan_seed o.completed o.total_ops o.txs_committed
            o.txs_aborted)
    in
    dump "SAFETY" safety;
    dump "ATOMICITY" atomicity;
    dump "DURABILITY" durability
end)
