type injector = { inject : 'op 'st. ('op, 'st, string) Rsm.Group.t -> unit }

type summary = {
  object_name : string;
  backend_name : string;
  n : int;
  clients : int;
  commands : int;
  acked : int;
  crashes : int;
  restarts : int;
  virtual_time : int;
  slots : int;
  throughput : float;
  order_violations : int;
  wg_violations : string list;
  wg_states : int;
  digests_agree : bool;
  ok : bool;
}

(* Upper bound the Wing–Gong checker accepts (the linearized set lives
   in one immediate int). *)
let max_history = 62

let run ?(n = 5) ?(clients = 3) ?(commands = 6) ?(batch = 8) ?(crashes = 0)
    ?restart_after ?(seed = 1) ?ack_timeout ?max_events ?inject ?store ?drop_nth
    ~backend (module O : Obj.Spec.S) : summary =
  if clients * commands > max_history then
    invalid_arg
      (Printf.sprintf
         "Obj_load.run: %d clients x %d commands exceeds the %d-event \
          Wing–Gong cap"
         clients commands max_history);
  let module Rep = Obj.Replicated.Make (O) in
  let ops =
    Load.gen_obj_ops
      (module O)
      ~keys:8 ~zipf_s:1.1 ~seed:(Int64.of_int seed) ~clients ~commands ()
  in
  let crash_schedule, restart_schedule =
    match restart_after with
    | None -> (Rsm_load.crash_plan ~n ~crashes, [])
    | Some down_for -> Rsm_load.crash_restart_plan ~n ~crashes ~down_for ()
  in
  let base = Rsm.Runner.default_config ~n ~ops in
  let cfg =
    {
      base with
      Rsm.Runner.backend;
      batch;
      seed = Int64.of_int seed;
      crash_schedule;
      restart_schedule;
      quiet = true;
      inject = Option.map (fun i -> i.inject) inject;
      ack_timeout = Option.value ack_timeout ~default:base.Rsm.Runner.ack_timeout;
      max_events = Option.value max_events ~default:base.Rsm.Runner.max_events;
      store;
    }
  in
  let r = Rsm.Runner.run (Rep.app ?drop_nth ()) cfg in
  let wg = Rep.check r.Rsm.Runner.history in
  let wg_violations =
    match wg.Rep.W.verdict with
    | Rep.W.Linearizable _ -> []
    | _ -> Rep.violations r.Rsm.Runner.history
  in
  let order_violations =
    List.length r.violations + List.length r.completeness
    + List.length r.durability
  in
  {
    object_name = O.name;
    backend_name = Rsm.Backend.name backend;
    n;
    clients;
    commands = r.submitted;
    acked = r.acked;
    crashes = List.length r.crashed;
    restarts = List.length r.restarted;
    virtual_time = r.virtual_time;
    slots = r.slots;
    throughput = Load.throughput ~acked:r.acked ~virtual_time:r.virtual_time;
    order_violations;
    wg_violations;
    wg_states = wg.Rep.W.states;
    digests_agree = r.digests_agree;
    ok =
      order_violations = 0 && r.digests_agree && wg_violations = []
      && r.engine_outcome = Dsim.Engine.Quiescent;
  }

let table ?ppf summaries =
  let ppf = Option.value ppf ~default:Format.std_formatter in
  Table.print ~ppf ~title:"universal construction: per-object runs"
    ~headers:
      [ "object"; "backend"; "acked"; "slots"; "vtime"; "wg-states"; "ok" ]
    (List.map
       (fun s ->
         [
           s.object_name;
           s.backend_name;
           Printf.sprintf "%d/%d" s.acked s.commands;
           string_of_int s.slots;
           string_of_int s.virtual_time;
           string_of_int s.wg_states;
           (if s.ok then "yes" else "NO");
         ])
       summaries)
