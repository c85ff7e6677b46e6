let gen_ops ~seed ~clients ~commands () =
  Load.gen_kv_ops ~zipf_s:1.1 ~seed ~clients ~commands ()

let crash_plan ~n ~crashes =
  if crashes < 0 || crashes >= n then
    invalid_arg "Rsm_load.crash_plan: need 0 <= crashes < n";
  List.init crashes (fun k -> (40 + (60 * k), k))

let crash_restart_plan ~n ~crashes ?(down_for = 150) () =
  if down_for < 1 then
    invalid_arg "Rsm_load.crash_restart_plan: down_for must be >= 1";
  let cs = crash_plan ~n ~crashes in
  (cs, List.map (fun (t, p) -> (t + down_for, p)) cs)

type summary = {
  backend_name : string;
  batch : int;
  n : int;
  clients : int;
  commands : int;
  acked : int;
  crashes : int;
  restarts : int;
  virtual_time : int;
  slots : int;
  instances : int;
  messages : int;
  throughput : float;
  latency : Stats.summary option;
  violations : int;
  ok : bool;
}

(* The KV store lifted onto the consensus log — the app every KV
   workload run replicates. *)
module Kv_rep = Obj.Replicated.Make (Obj.Kv)

let kv_app = Kv_rep.app ()

let summarize (cfg : _ Rsm.Runner.config) (r : _ Rsm.Runner.report) =
  let violations =
    List.length r.violations + List.length r.completeness
    + List.length r.durability
  in
  {
    backend_name = Rsm.Backend.name cfg.backend;
    batch = cfg.batch;
    n = cfg.n;
    clients = Array.length cfg.ops;
    commands = r.submitted;
    acked = r.acked;
    crashes = List.length r.crashed;
    restarts = List.length r.restarted;
    virtual_time = r.virtual_time;
    slots = r.slots;
    instances = r.instances;
    messages = r.messages_sent;
    throughput = Load.throughput ~acked:r.acked ~virtual_time:r.virtual_time;
    latency = Load.latency_opt r.latencies;
    violations;
    ok = (violations = 0 && r.digests_agree);
  }

let run_one ?(n = 5) ?(clients = 4) ?(commands = 8) ?(batch = 8) ?(crashes = 0)
    ?restart_after ?(seed = 1) ?trace_capacity ?(quiet = false) ?ack_timeout
    ?max_events ?inject ?store ~backend () =
  let ops = gen_ops ~seed:(Int64.of_int seed) ~clients ~commands () in
  let crash_schedule, restart_schedule =
    match restart_after with
    | None -> (crash_plan ~n ~crashes, [])
    | Some down_for -> crash_restart_plan ~n ~crashes ~down_for ()
  in
  let base = Rsm.Runner.default_config ~n ~ops in
  let cfg =
    {
      base with
      backend;
      batch;
      seed = Int64.of_int seed;
      crash_schedule;
      restart_schedule;
      trace_capacity;
      quiet;
      inject;
      ack_timeout = Option.value ack_timeout ~default:base.Rsm.Runner.ack_timeout;
      max_events = Option.value max_events ~default:base.Rsm.Runner.max_events;
      store;
    }
  in
  let r = Rsm.Runner.run kv_app cfg in
  (r, summarize cfg r)

let sweep_batches ?(clients = 24) ?(commands = 4) ?(seeds = 3)
    ?(batches = [ 1; 8; 32 ]) ?(backends = Rsm.Backend.all) ?(jobs = 1) ppf =
  let n = 5 in
  (* One pool item per (backend, batch) cell; each cell still runs its
     seeds sequentially.  Cells are independent simulations, and the
     result list keeps cell order, so jobs > 1 changes wall time only. *)
  let cell (backend, batch) =
    let runs =
      List.init seeds (fun s ->
          snd
            (run_one ~n ~clients ~commands ~batch ~seed:(s + 1) ~quiet:true
               ~backend ()))
    in
    let fmean f = Stats.mean (List.map f runs) in
    let imean f = int_of_float (Float.round (fmean (fun r -> float_of_int (f r)))) in
    {
      (List.hd runs) with
      commands = imean (fun r -> r.commands);
      acked = imean (fun r -> r.acked);
      virtual_time = imean (fun r -> r.virtual_time);
      slots = imean (fun r -> r.slots);
      instances = imean (fun r -> r.instances);
      messages = imean (fun r -> r.messages);
      throughput = fmean (fun r -> r.throughput);
      latency = None;
      violations = List.fold_left (fun a r -> a + r.violations) 0 runs;
      ok = List.for_all (fun r -> r.ok) runs;
    }
  in
  let cells =
    Exec.Pool.map_list ~jobs cell
      (List.concat_map
         (fun backend -> List.map (fun batch -> (backend, batch)) batches)
         backends)
  in
  Table.print ~ppf
    ~title:
      (Printf.sprintf
         "RSM throughput vs batch size (n=%d, %d clients x %d cmds, %d seeds)" n
         clients commands seeds)
    ~headers:
      [ "backend"; "batch"; "slots"; "instances"; "vtime"; "cmds/kvt"; "ok" ]
    (List.map
       (fun c ->
         [
           c.backend_name;
           string_of_int c.batch;
           string_of_int c.slots;
           string_of_int c.instances;
           string_of_int c.virtual_time;
           Printf.sprintf "%.1f" c.throughput;
           (if c.ok then "yes" else "NO");
         ])
       cells);
  cells
