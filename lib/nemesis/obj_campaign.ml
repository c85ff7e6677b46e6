type config = {
  backends : Rsm.Backend.t list;
  objects : string list;
  plans : int;
  first_seed : int;
  n : int;
  clients : int;
  commands : int;
  batch : int;
  storage : bool;
}

let default_config ?(n = 5) () =
  {
    backends = [ Rsm.Backend.ben_or ];
    objects = Obj.Registry.names;
    plans = 5;
    first_seed = 1;
    n;
    clients = 3;
    commands = 4;
    batch = 4;
    storage = false;
  }

type outcome = {
  summary : Workload.Obj_load.summary;
  plan_seed : int;
  plan : Plan.t;
}

let plan_for cfg ~seed =
  Gen.generate { (Gen.default ~n:cfg.n) with storage = cfg.storage } ~seed

let run_plan cfg ~object_name ~backend ~seed plan =
  Workload.Obj_load.run ~n:cfg.n ~clients:cfg.clients ~commands:cfg.commands
    ~batch:cfg.batch ~seed ~ack_timeout:400 ~max_events:400_000
    ~inject:
      { Workload.Obj_load.inject = (fun f -> Interp.install_rsm plan f) }
    ?store:(if cfg.storage then Some Rsm.Runner.default_store_config else None)
    ~backend
    (Obj.Registry.find object_name)

let ok o = o.summary.Workload.Obj_load.ok

include Sweep.Make (struct
  type nonrec config = config
  type key = string * Rsm.Backend.t * int
  type nonrec outcome = outcome

  let keys cfg =
    List.concat_map
      (fun object_name ->
        List.concat_map
          (fun backend ->
            List.init cfg.plans (fun k -> (object_name, backend, cfg.first_seed + k)))
          cfg.backends)
      cfg.objects

  let seed (_, _, s) = s

  let run_key cfg (object_name, backend, seed) =
    let plan = plan_for cfg ~seed in
    { summary = run_plan cfg ~object_name ~backend ~seed plan; plan_seed = seed; plan }

  let headline r =
    Printf.sprintf "object campaign: %d runs, %d failures (%d linearizability)"
      (Sweep.runs r)
      (List.length (Sweep.failing ok r))
      (List.length
         (Sweep.failing (fun o -> o.summary.Workload.Obj_load.wg_violations = []) r))

  let pp_body ppf r =
    let name o = o.summary.Workload.Obj_load.object_name in
    List.iter
      (fun object_name ->
        let mine = List.filter (fun o -> name o = object_name) r.Sweep.outcomes in
        Format.fprintf ppf "  %-8s %d runs, %d failures@." object_name
          (List.length mine)
          (List.length (List.filter (fun o -> not (ok o)) mine)))
      (List.sort_uniq compare (List.map name r.Sweep.outcomes));
    List.iter
      (fun o ->
        Format.fprintf ppf "  FAIL %s/%s seed=%d (%d actions): %s@." (name o)
          o.summary.Workload.Obj_load.backend_name o.plan_seed (Plan.length o.plan)
          (match o.summary.Workload.Obj_load.wg_violations with
          | v :: _ -> v
          | [] -> "order/digest gate"))
      (Sweep.failing ok r)
end)
