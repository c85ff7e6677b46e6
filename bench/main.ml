(* Benchmark harness.

   Two parts, mirroring the per-experiment index in DESIGN.md:

   1. The table harness — regenerates every experiment table (E1..E8) by
      calling [Workload.Experiments], exactly what `oocon experiments`
      does.  Pass "tables-only" or "bench-only" to run half.  Pass "full"
      for the full-scale workloads (default: quick).

   2. Bechamel micro-benchmarks — one [Test.make] per experiment id,
      timing the core simulated run each table is built from, plus the
      decomposed-vs-monolithic pairs behind E8's modularity-cost claim. *)

open Bechamel
open Toolkit

let split_inputs n = Array.init n (fun i -> i mod 2 = 0)

(* --- benchmark bodies (one representative run per experiment) ---------- *)

let benor_run mode seed =
  let cfg =
    {
      (Ben_or.Runner.default_config ~n:8 ~inputs:(split_inputs 8)) with
      seed = Int64.of_int seed;
      mode;
    }
  in
  ignore (Ben_or.Runner.run cfg : Ben_or.Runner.report)

let benor_crashy seed =
  let cfg =
    {
      (Ben_or.Runner.default_config ~n:8 ~inputs:(split_inputs 8)) with
      seed = Int64.of_int seed;
      crash_schedule = [ (10, 0); (21, 2); (32, 4) ];
    }
  in
  ignore (Ben_or.Runner.run cfg : Ben_or.Runner.report)

let phase_king_run ?(n = 10) mode seed =
  let cfg =
    {
      (Phase_king.Runner.default_config ~n ~inputs:(Array.init n (fun i -> i mod 2)))
      with
      seed = Int64.of_int seed;
      strategy = Phase_king.Strategies.camp_splitter;
      mode;
    }
  in
  ignore (Phase_king.Runner.run cfg : Phase_king.Runner.report)

let raft_run ?(crash = false) seed =
  let cl = Raft.Cluster.create ~seed:(Int64.of_int seed) ~n:5 () in
  let cons =
    Raft.Consensus_raft.create ~cluster:cl ~inputs:(Array.init 5 (fun i -> 100 + i))
  in
  Raft.Cluster.start cl;
  if crash then begin
    ignore
      (Raft.Cluster.run_until cl (fun () -> Raft.Cluster.current_leader cl <> None)
      : bool);
    match Raft.Cluster.current_leader cl with
    | Some l -> Raft.Cluster.crash cl l
    | None -> ()
  end;
  ignore (Raft.Consensus_raft.run_until_all_decided ~timeout:300_000 cons : bool)

module Sm = Sharedmem.Protocol.Make (Consensus.Objects.Bool_value)

let sharedmem_run seed =
  let eng = Dsim.Engine.create ~seed:(Int64.of_int seed) () in
  let world = Sharedmem.World.create eng () in
  let shared = Sm.create_shared ~n:6 world in
  for i = 0 to 5 do
    ignore
      (Dsim.Engine.spawn eng (fun ectx ->
           let ctx = { Sm.shared; proc = { Sharedmem.World.world; me = i; ectx } } in
           ignore (Sm.Consensus_sm.consensus ctx (i mod 2 = 0) : bool * int))
      : Dsim.Engine.pid)
  done;
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome)

let vac_from_two_ac_run seed =
  let eng = Dsim.Engine.create ~seed:(Int64.of_int seed) () in
  let world = Sharedmem.World.create eng () in
  let shared = Sm.create_shared ~n:5 world in
  for i = 0 to 4 do
    ignore
      (Dsim.Engine.spawn eng (fun ectx ->
           let ctx = { Sm.shared; proc = { Sharedmem.World.world; me = i; ectx } } in
           ignore (Sm.Vac.invoke ctx ~round:1 (i mod 2 = 0) : bool Consensus.Types.vac_result))
      : Dsim.Engine.pid)
  done;
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome)

let decentralized_run seed =
  let eng = Dsim.Engine.create ~seed:(Int64.of_int seed) ~trace_capacity:1_000 () in
  let net = Netsim.Async_net.create eng ~n:7 ~retain_inbox:false () in
  for i = 0 to 6 do
    ignore
      (Dsim.Engine.spawn eng (fun _ectx ->
           let ctx =
             Raft.Decentralized.make_ctx ~net ~me:i ~faults:3 ~input:(100 + (i mod 3))
           in
           ignore
             (Raft.Decentralized.Consensus_decentralized.consensus ~max_rounds:500 ctx
                (100 + (i mod 3))
             : int * int))
      : Dsim.Engine.pid)
  done;
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome)

let rsm_run backend seed =
  ignore
    (Workload.Rsm_load.run_one ~n:5 ~clients:4 ~commands:2 ~batch:8 ~seed ~backend ()
      : Obj.Kv.op Rsm.Runner.report * Workload.Rsm_load.summary)

let rsm_durable_run ~snapshot_every backend seed =
  let store = { Rsm.Runner.default_store_config with snapshot_every } in
  ignore
    (Workload.Rsm_load.run_one ~n:5 ~clients:4 ~commands:2 ~batch:8 ~seed ~store
       ~backend ()
      : Obj.Kv.op Rsm.Runner.report * Workload.Rsm_load.summary)

(* WAL overhead and snapshot/compaction cost vs the in-memory baseline:
   same workload three ways — no store, WAL only (ack gated on fsync, no
   snapshots), WAL + snapshot-every-4.  Virtual time measures protocol
   cost (fsync stalls, floor round-trips); appends/fsyncs/compacted come
   straight from the disks' counters. *)
type store_row = {
  so_backend : string;
  so_store : string;
  so_vt : int;
  so_thr : float;
  so_appends : int;
  so_fsyncs : int;
  so_snapshots : int;
  so_compacted : int;
  so_ok : bool;
}

let store_overhead_rows ~scale =
  let clients, commands = if scale = Workload.Experiments.Full then (6, 6) else (4, 3) in
  let rows =
    List.concat_map
      (fun backend ->
        List.map
          (fun (label, store) ->
            let runs =
              List.map
                (fun seed ->
                  Workload.Rsm_load.run_one ~n:5 ~clients ~commands ~batch:4
                    ~seed ~quiet:true ?store ~backend ())
                [ 1; 2; 3 ]
            in
            let avg f =
              List.fold_left (fun a r -> a + f r) 0 runs / List.length runs
            in
            let sum_stats f =
              avg (fun (r, _) ->
                  Array.fold_left (fun a st -> a + f st) 0 r.Rsm.Runner.store_stats)
            in
            {
              so_backend = Rsm.Backend.name backend;
              so_store = label;
              so_vt = avg (fun (r, _) -> r.Rsm.Runner.virtual_time);
              so_thr =
                List.fold_left
                  (fun a (_, s) -> a +. s.Workload.Rsm_load.throughput)
                  0. runs
                /. float_of_int (List.length runs);
              so_appends = sum_stats (fun st -> st.Store.Disk.appends);
              so_fsyncs = sum_stats (fun st -> st.Store.Disk.fsyncs);
              so_snapshots = sum_stats (fun st -> st.Store.Disk.snapshots_taken);
              so_compacted = sum_stats (fun st -> st.Store.Disk.compacted_records);
              so_ok = List.for_all (fun (_, s) -> s.Workload.Rsm_load.ok) runs;
            })
          [
            ("none", None);
            ("wal", Some { Rsm.Runner.default_store_config with snapshot_every = 0 });
            ("wal+snap4", Some Rsm.Runner.default_store_config);
          ])
      Rsm.Backend.all
  in
  (clients, commands, rows)

let store_overhead_table ~scale ppf =
  let clients, commands, rows = store_overhead_rows ~scale in
  Format.fprintf ppf
    "@.Durable-store overhead (n=5, %d clients x %d cmds, seed-averaged x3)@."
    clients commands;
  Format.fprintf ppf
    "%-12s %-14s %8s %10s %8s %8s %6s %10s@." "backend" "store" "vt"
    "thr/kvt" "appends" "fsyncs" "snaps" "compacted";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-12s %-14s %8d %10.2f %8d %8d %6d %10d@."
        r.so_backend r.so_store r.so_vt r.so_thr r.so_appends r.so_fsyncs
        r.so_snapshots r.so_compacted;
      if not r.so_ok then
        Format.fprintf ppf "  WARNING: %s/%s reported violations@." r.so_backend
          r.so_store)
    rows

let null_ppf = Format.make_formatter (fun _ _ _ -> ()) (fun () -> ())

(* The sharded scaling load: the same client traffic at every shard
   count, so single-shard ops/kvt should grow with shards while the
   cross-shard 2PC mix pays for coordination. *)
let shard_bench_load =
  {
    Workload.Load.default with
    Workload.Load.clients = 192;
    ops_per_client = 3;
    keys = 512;
    tx_pct = 10;
    tx_span = 2;
  }

let shard_scaling_rows ~scale =
  let seeds = if scale = Workload.Experiments.Full then 3 else 1 in
  Workload.Shard_load.sweep_shards ~load:shard_bench_load ~seeds null_ppf

let shard_run ?(shards = 4) backend seed =
  ignore
    (Workload.Shard_load.run
       (Workload.Shard_load.config ~shards ~seed
          ~load:
            {
              shard_bench_load with
              Workload.Load.clients = 32;
              ops_per_client = 2;
            }
          ~backend ())
      : Shard.Runner.report * Workload.Shard_load.summary)

(* One fault-injected RSM run: generate a seeded plan, install it, audit. *)
let nemesis_run backend seed =
  let cfg = Nemesis.Campaign.default_config ~n:5 () in
  let plan = Nemesis.Campaign.plan_for cfg ~seed in
  ignore
    (Nemesis.Campaign.run_plan ~quiet:false cfg ~backend ~seed plan
      : Obj.Kv.op Rsm.Runner.report)

(* Campaign throughput: a whole seeded sweep through the safety auditor,
   reported as runs/sec and faults injected (the numbers `oocon nemesis`
   prints), one backend to keep the quick scale quick. *)
let nemesis_campaign_table ~scale ppf =
  let plans = if scale = Workload.Experiments.Full then 200 else 40 in
  let cfg =
    {
      (Nemesis.Campaign.default_config ~n:5 ()) with
      Nemesis.Campaign.backends = [ Rsm.Backend.ben_or ];
      plans;
    }
  in
  let r = Nemesis.Campaign.run cfg in
  let failing gate = List.length (Nemesis.Sweep.failing gate r) in
  Format.fprintf ppf
    "@.Nemesis campaign (ben-or, %d plans): %d runs, %d faults injected, \
     %.0f runs/sec, %d safety failures, %d incomplete@."
    plans (Nemesis.Sweep.runs r)
    (List.fold_left
       (fun a o -> a + Nemesis.Plan.length o.Nemesis.Campaign.plan)
       0 r.Nemesis.Sweep.outcomes)
    (Nemesis.Sweep.runs_per_sec r)
    (failing (fun o -> o.Nemesis.Campaign.safety))
    (failing (fun o -> o.Nemesis.Campaign.live))

(* --- machine-readable baseline (BENCH_core.json) ----------------------- *)

(* The engine hot loop under both profiles: four processes stepping the
   virtual clock [iters] times each, every step emitting a thunked trace
   line.  Traced forces each thunk (sprintf + trace record); quiet drops
   it before allocation, so the alloc-per-event delta is exactly the
   cost lazy emission removes from campaign runs. *)
let engine_profile ~tracing ~iters =
  let eng = Dsim.Engine.create ~seed:42L ~trace_capacity:1_024 () in
  for p = 0 to 3 do
    ignore
      (Dsim.Engine.spawn eng (fun ctx ->
           for i = 1 to iters do
             Dsim.Engine.emitk eng ~tag:"bench" (fun () ->
                 Printf.sprintf "process %d step %d" p i);
             Dsim.Engine.sleep ctx 1
           done)
        : Dsim.Engine.pid)
  done;
  (* Both profiles start from the same (traced) engine; the quiet one
     goes through [run_quiet], the campaign/bench entry point. *)
  let run = if tracing then Dsim.Engine.run else Dsim.Engine.run_quiet in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  ignore (run eng : Dsim.Engine.outcome);
  let wall = Unix.gettimeofday () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  let events = float_of_int (4 * iters) in
  (events /. Float.max wall 1e-9, alloc /. events)

(* The flat hot path: self-rescheduling registered-kind events — no
   fiber, no closure per event, the emitk thunk is the only per-event
   allocation (and quiet drops it before the trace record).  This is
   the path Async_net deliveries, timers and detector wakers compile
   to, so its quiet figure is the engine's raw event throughput. *)
let engine_flat_profile ~tracing ~iters =
  let eng = Dsim.Engine.create ~seed:42L ~trace_capacity:1_024 () in
  let sources = 4 in
  let remaining = Array.make sources iters in
  let k = ref (-1) in
  k :=
    Dsim.Engine.register_kind eng (fun src ->
        (* Guarding the thunk on [tracing] is the idiom the flat layers
           use (Async_net's quiet path allocates nothing per delivery),
           so the quiet figure is the engine's raw event cost. *)
        if Dsim.Engine.tracing eng then
          Dsim.Engine.emitk eng ~tag:"bench" (fun () ->
              Printf.sprintf "source %d step" src);
        let r = remaining.(src) - 1 in
        remaining.(src) <- r;
        if r > 0 then
          Dsim.Engine.schedule_kind eng ~owner:(-1) ~delay:1 ~kind:!k src);
  for src = 0 to sources - 1 do
    Dsim.Engine.schedule_kind eng ~owner:(-1) ~delay:1 ~kind:!k src
  done;
  let run = if tracing then Dsim.Engine.run else Dsim.Engine.run_quiet in
  let a0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  ignore (run eng : Dsim.Engine.outcome);
  let wall = Unix.gettimeofday () -. t0 in
  let alloc = Gc.allocated_bytes () -. a0 in
  let events = float_of_int (sources * iters) in
  (events /. Float.max wall 1e-9, alloc /. events)

(* Per-event cost beside [blocked] processes parked on a queue nobody
   signals.  A busy pair plays ping-pong through a second queue: ping
   sleeps one tick (the event), flips the turn and signals, pong wakes,
   flips it back and signals, ping wakes.  With signalled waits the
   parked processes are never polled, so the cost per event should not
   grow with their number.  Setup (spawning and parking) is untimed;
   the figure is the median of three runs, in host ns per event. *)
let blocked_scaling_ns ~blocked ~iters =
  let once () =
    let eng = Dsim.Engine.create ~seed:3L ~tracing:false () in
    let parked = Dsim.Engine.queue eng and turns = Dsim.Engine.queue eng in
    for _ = 1 to blocked do
      ignore
        (Dsim.Engine.spawn eng (fun _ ->
             Dsim.Engine.await_cond parked (fun () -> false))
          : Dsim.Engine.pid)
    done;
    let ping_turn = ref true in
    ignore
      (Dsim.Engine.spawn eng (fun ctx ->
           for _ = 1 to iters do
             Dsim.Engine.sleep ctx 1;
             ping_turn := false;
             Dsim.Engine.signal turns;
             Dsim.Engine.await_cond turns (fun () -> !ping_turn)
           done)
        : Dsim.Engine.pid);
    ignore
      (Dsim.Engine.spawn eng (fun _ ->
           for _ = 1 to iters do
             Dsim.Engine.await_cond turns (fun () -> not !ping_turn);
             ping_turn := true;
             Dsim.Engine.signal turns
           done)
        : Dsim.Engine.pid);
    ignore (Dsim.Engine.run ~until:0 eng : Dsim.Engine.outcome);
    let t0 = Unix.gettimeofday () in
    ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters
  in
  let runs = List.sort compare (List.init 3 (fun _ -> once ())) in
  List.nth runs 1

let blocked_counts = [ 10; 100; 1_000; 10_000 ]

let blocked_scaling_rows () =
  List.map
    (fun blocked ->
      Json.Obj
        [
          ("blocked", Json.Int blocked);
          ("ns_per_event", Json.Float (blocked_scaling_ns ~blocked ~iters:200_000));
        ])
    blocked_counts

(* The event queue on the workloads that stress it: many concurrent
   timers (4,096 in flight, delays 1..64), a timer-driven Raft cluster,
   and the heartbeat failure detector. *)
let flat_timer_wall ~sources ~iters =
  let eng = Dsim.Engine.create ~seed:7L ~tracing:false () in
  let remaining = Array.make sources iters in
  let k = ref (-1) in
  let fire eng src =
    Dsim.Engine.schedule_kind eng ~owner:(-1)
      ~delay:(1 + (src * 7 land 63))
      ~kind:!k src
  in
  k :=
    Dsim.Engine.register_kind eng (fun src ->
        let r = remaining.(src) - 1 in
        remaining.(src) <- r;
        if r > 0 then fire eng src);
  for src = 0 to sources - 1 do
    fire eng src
  done;
  let t0 = Unix.gettimeofday () in
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  Unix.gettimeofday () -. t0

let raft_queue_wall ~rounds =
  let t0 = Unix.gettimeofday () in
  for seed = 1 to rounds do
    let cl = Raft.Cluster.create ~seed:(Int64.of_int seed) ~n:5 () in
    let cons =
      Raft.Consensus_raft.create ~cluster:cl
        ~inputs:(Array.init 5 (fun i -> 100 + i))
    in
    Raft.Cluster.start cl;
    ignore (Raft.Consensus_raft.run_until_all_decided ~timeout:300_000 cons : bool)
  done;
  Unix.gettimeofday () -. t0

let detect_queue_wall ~rounds =
  let t0 = Unix.gettimeofday () in
  for seed = 1 to rounds do
    ignore
      (Detect.Runner.run ~n:8 ~seed:(Int64.of_int seed) ~quiet:true ()
        : Detect.Runner.report)
  done;
  Unix.gettimeofday () -. t0

let queue_reps = 5

(* One row per workload: median, min and max wall time of
   [queue_reps] runs. *)
let queue_compare_rows () =
  let row ~workload ?events wall =
    let walls = List.sort compare (List.init queue_reps (fun _ -> wall ())) in
    let median = List.nth walls (queue_reps / 2) in
    Json.Obj
      [
        ("workload", Json.String workload);
        ("wall_seconds", Json.Float median);
        ("wall_min", Json.Float (List.hd walls));
        ("wall_max", Json.Float (List.nth walls (queue_reps - 1)));
        ( "events_per_sec",
          match events with
          | Some e -> Json.Float (float_of_int e /. Float.max median 1e-9)
          | None -> Json.Null );
      ]
  in
  let sources = 4_096 and iters = 600 in
  [
    row ~workload:"flat-timers.4k" ~events:(sources * iters) (fun () ->
        flat_timer_wall ~sources ~iters);
    row ~workload:"raft-smoke.n5" (fun () -> raft_queue_wall ~rounds:40);
    row ~workload:"detect.n8" (fun () -> detect_queue_wall ~rounds:40);
  ]

let campaign_scaling ~plans jobs_list =
  let cfg =
    {
      (Nemesis.Campaign.default_config ~n:5 ()) with
      Nemesis.Campaign.backends = [ Rsm.Backend.ben_or ];
      plans;
      storage = true;
    }
  in
  List.map (fun jobs -> (jobs, Nemesis.Campaign.run ~jobs cfg)) jobs_list

(* One bounded exploration, reported as schedules/sec.  Kept small: the
   json baseline runs on every CI build. *)
let mcheck_cell ~model ~depth ?(reduction = Mcheck.Explorer.Rsleep) make_model =
  let config = { Mcheck.Explorer.default_config with depth; reduction } in
  let r = Mcheck.Explorer.explore ~jobs:1 ~config (make_model ()) in
  let rate =
    if r.Mcheck.Explorer.r_wall > 0. then
      float_of_int r.Mcheck.Explorer.r_executions /. r.Mcheck.Explorer.r_wall
    else 0.
  in
  Json.Obj
    [
      ("model", Json.String model);
      ("depth", Json.Int depth);
      ("reduction", Json.String (Mcheck.Explorer.reduction_name reduction));
      ("executions", Json.Int r.Mcheck.Explorer.r_executions);
      ("violating", Json.Int r.Mcheck.Explorer.r_violating);
      ("schedules_per_sec", Json.Float rate);
    ]

(* One PCT sampling campaign: the empirical bug-finding probability per
   schedule at a fixed budget — the figure of merit for randomized
   testing where exhaustive sweeps are hopeless.  Deterministic for a
   fixed seed, so the baseline can pin it. *)
let pct_cell ~model ~schedules make_model =
  let config = { Mcheck.Pct.default_config with Mcheck.Pct.schedules } in
  let r = Mcheck.Pct.run ~jobs:1 ~config (make_model ()) in
  let rate =
    if r.Mcheck.Pct.pr_wall > 0. then
      float_of_int schedules /. r.Mcheck.Pct.pr_wall
    else 0.
  in
  Json.Obj
    [
      ("model", Json.String model);
      ("schedules", Json.Int schedules);
      ("d", Json.Int config.Mcheck.Pct.d);
      ("violating", Json.Int r.Mcheck.Pct.pr_violating);
      ("probability", Json.Float r.Mcheck.Pct.pr_probability);
      ("schedules_per_sec", Json.Float rate);
    ]

(* Per-object universal-construction rows: the object's own sequential
   [apply] throughput, and the Wing–Gong checker's price on a real
   replicated history (states visited, wall seconds, verdict).  One row
   per registry instance — the checker cost is the part that scales
   badly (memoized exponential), so it gets its own column. *)
let obj_row (type a) name (module O : Obj.Spec.S with type op = a) =
  let rng = Dsim.Rng.create 11L in
  let stream =
    Array.init 64 (fun k ->
        O.gen_op ~rng
          ~key:(Printf.sprintf "k%d" (k mod 8))
          ~tag:(Printf.sprintf "b%d" k))
  in
  let iters = 50_000 in
  let st = ref O.init in
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    st := fst (O.apply !st stream.(i mod Array.length stream))
  done;
  let apply_wall = Unix.gettimeofday () -. t0 in
  ignore (O.digest !st : string);
  let module Rep = Obj.Replicated.Make (O) in
  let ops =
    Workload.Load.gen_obj_ops (module O) ~seed:5L ~clients:3 ~commands:6 ()
  in
  let r =
    Rsm.Runner.run (Rep.app ())
      { (Rsm.Runner.default_config ~n:5 ~ops) with quiet = true }
  in
  let t0 = Unix.gettimeofday () in
  let wg = Rep.check r.Rsm.Runner.history in
  let wg_wall = Unix.gettimeofday () -. t0 in
  let linearizable =
    match wg.Rep.W.verdict with Rep.W.Linearizable _ -> true | _ -> false
  in
  Json.Obj
    [
      ("object", Json.String name);
      ( "apply_ops_per_sec",
        Json.Float (float_of_int iters /. Float.max apply_wall 1e-9) );
      ("history_events", Json.Int (List.length r.Rsm.Runner.history));
      ("wg_states", Json.Int wg.Rep.W.states);
      ("wg_seconds", Json.Float wg_wall);
      ("linearizable", Json.Bool linearizable);
    ]

let obj_rows () =
  List.map
    (fun (name, (module O : Obj.Spec.S)) -> obj_row name (module O))
    Obj.Registry.all

(* The BENCH_core.json layout this bench writes and validates. *)
let schema = "oocon-bench-core/8"

let bench_core_json () =
  let cores = Exec.Pool.cores () in
  let row events_per_sec alloc_per_event =
    Json.Obj
      [
        ("events_per_sec", Json.Float events_per_sec);
        ("alloc_bytes_per_event", Json.Float alloc_per_event);
      ]
  in
  let profile ~flat tracing =
    let p = if flat then engine_flat_profile else engine_profile in
    let events_per_sec, alloc_per_event =
      p ~tracing ~iters:(if flat then 500_000 else 50_000)
    in
    row events_per_sec alloc_per_event
  in
  (* The headline traced/quiet rows measure the flat registered-kind
     path — what network deliveries, timers and detector wakers cost.
     The fiber rows keep the old effect-suspension workload visible:
     its floor is the ~70ns perform+continue round trip per event,
     which no queue work can remove.  Traced first in each pair so its
     trace buffers don't sit in quiet's Gc delta. *)
  let traced = profile ~flat:true true in
  let quiet = profile ~flat:true false in
  let fiber_traced = profile ~flat:false true in
  let fiber_quiet = profile ~flat:false false in
  let campaign =
    (* [cores] rides at the recommended-domain cap; anything above it
       would be oversubscribed and is tagged so readers don't take the
       flat spot beyond the cap for a scaling defect. *)
    let cap = Domain.recommended_domain_count () in
    let jobs_list = List.sort_uniq compare [ 1; 2; 4; cores ] in
    List.map
      (fun (jobs, r) ->
        let failing gate = Json.Int (List.length (Nemesis.Sweep.failing gate r)) in
        Json.Obj
          [
            ("jobs", Json.Int jobs);
            ("oversubscribed", Json.Bool (jobs > cap));
            ("runs", Json.Int (Nemesis.Sweep.runs r));
            ("wall_seconds", Json.Float r.Nemesis.Sweep.wall_seconds);
            ("runs_per_sec", Json.Float (Nemesis.Sweep.runs_per_sec r));
            ("safety_failures", failing (fun o -> o.Nemesis.Campaign.safety));
            ("durability_failures", failing (fun o -> o.Nemesis.Campaign.durable));
          ])
      (campaign_scaling ~plans:300 jobs_list)
  in
  let rsm =
    List.map
      (fun (s : Workload.Rsm_load.summary) ->
        Json.Obj
          [
            ("backend", Json.String s.Workload.Rsm_load.backend_name);
            ("batch", Json.Int s.Workload.Rsm_load.batch);
            ("throughput_per_kvt", Json.Float s.Workload.Rsm_load.throughput);
            ("ok", Json.Bool s.Workload.Rsm_load.ok);
          ])
      (Workload.Rsm_load.sweep_batches ~clients:12 ~commands:3 ~seeds:1 null_ppf)
  in
  let wal =
    let _, _, rows = store_overhead_rows ~scale:Workload.Experiments.Quick in
    List.map
      (fun r ->
        Json.Obj
          [
            ("backend", Json.String r.so_backend);
            ("store", Json.String r.so_store);
            ("virtual_time", Json.Int r.so_vt);
            ("throughput_per_kvt", Json.Float r.so_thr);
            ("appends", Json.Int r.so_appends);
            ("fsyncs", Json.Int r.so_fsyncs);
            ("snapshots", Json.Int r.so_snapshots);
            ("compacted", Json.Int r.so_compacted);
            ("ok", Json.Bool r.so_ok);
          ])
      rows
  in
  let shard =
    List.map
      (fun (s : Workload.Shard_load.summary) ->
        Json.Obj
          [
            ("backend", Json.String s.Workload.Shard_load.backend_name);
            ("shards", Json.Int s.Workload.Shard_load.shards);
            ("clients", Json.Int s.Workload.Shard_load.clients);
            ("singles_acked", Json.Int s.Workload.Shard_load.singles_acked);
            ("txs_committed", Json.Int s.Workload.Shard_load.txs_committed);
            ("txs_aborted", Json.Int s.Workload.Shard_load.txs_aborted);
            ("abort_rate", Json.Float s.Workload.Shard_load.abort_rate);
            ("virtual_time", Json.Int s.Workload.Shard_load.virtual_time);
            ("throughput_per_kvt", Json.Float s.Workload.Shard_load.throughput);
            ("ok", Json.Bool s.Workload.Shard_load.ok);
          ])
      (shard_scaling_rows ~scale:Workload.Experiments.Quick)
  in
  let mcheck =
    [
      mcheck_cell ~model:"toy-ac" ~depth:8 (fun () ->
          Mcheck.Models.toy_ac ~check_termination:true ());
      mcheck_cell ~model:"toy-ac" ~depth:8 ~reduction:Mcheck.Explorer.Rdpor
        (fun () -> Mcheck.Models.toy_ac ~check_termination:true ());
      mcheck_cell ~model:"ben-or" ~depth:5 (fun () ->
          Mcheck.Models.benor ~check_termination:false ());
    ]
  in
  let pct =
    [
      pct_cell ~model:"toy-ac-broken" ~schedules:2000 (fun () ->
          Mcheck.Models.toy_ac ~broken:true ~check_termination:true ());
    ]
  in
  let detect =
    let row kind (c : Workload.Detect_load.summary) =
      Json.Obj
        [
          ("kind", Json.String kind);
          ("period", Json.Int c.Workload.Detect_load.period);
          ("window", Json.Int c.Workload.Detect_load.window);
          ( "mean_decision_latency",
            match c.Workload.Detect_load.mean_latency with
            | Some m -> Json.Float m
            | None -> Json.Null );
          ( "mean_omega_stability",
            match c.Workload.Detect_load.mean_stability with
            | Some m -> Json.Float m
            | None -> Json.Null );
          ("suspicions", Json.Int c.Workload.Detect_load.suspicions);
          ( "false_suspicions",
            Json.Int c.Workload.Detect_load.false_suspicions );
          ( "heartbeats_per_kvt",
            Json.Float c.Workload.Detect_load.heartbeats_per_kvt );
          ("ok", Json.Bool c.Workload.Detect_load.ok);
        ]
    in
    List.map (row "window")
      (Workload.Detect_load.sweep_windows null_ppf)
    @ List.map (row "period")
        (Workload.Detect_load.sweep_periods null_ppf)
  in
  Json.Obj
    [
      ("schema", Json.String schema);
      ("cores", Json.Int cores);
      ( "engine",
        Json.Obj
          [
            ("traced", traced);
            ("quiet", quiet);
            ("fiber_traced", fiber_traced);
            ("fiber_quiet", fiber_quiet);
          ] );
      ("queue_compare", Json.List (queue_compare_rows ()));
      ("blocked_scaling", Json.List (blocked_scaling_rows ()));
      ("campaign", Json.List campaign);
      ("rsm", Json.List rsm);
      ("obj", Json.List (obj_rows ()));
      ("shard", Json.List shard);
      ("wal_overhead", Json.List wal);
      ("mcheck", Json.List mcheck);
      ("pct", Json.List pct);
      ("detect", Json.List detect);
    ]

let write_bench_json file =
  let json = bench_core_json () in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc (Json.to_string json));
  Format.printf "bench baseline written to %s@." file

(* Schema check for CI: parse errors, missing keys, wrong types, and
   figures that make no sense (zero rates, quiet allocating more than
   traced) all fail the build. *)
let validate_bench_json file =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (match
     Json.parse (In_channel.with_open_text file In_channel.input_all)
   with
  | exception Json.Parse_error msg -> err "parse error: %s" msg
  | exception Sys_error msg -> err "cannot read: %s" msg
  | v ->
      let open Json in
      (match Option.bind (member "schema" v) to_string_opt with
      | Some v when v = schema -> ()
      | Some other -> err "unexpected schema %S" other
      | None -> err "missing schema");
      (match Option.bind (member "cores" v) to_int with
      | Some c when c >= 1 -> ()
      | Some c -> err "cores must be >= 1, got %d" c
      | None -> err "missing cores");
      let engine_field profile key =
        Option.bind (member "engine" v) (fun e ->
            Option.bind (member profile e) (fun p ->
                Option.bind (member key p) to_float))
      in
      let check_profile profile =
        (match engine_field profile "events_per_sec" with
        | Some r when r > 0. -> ()
        | Some _ -> err "engine.%s.events_per_sec must be > 0" profile
        | None -> err "missing engine.%s.events_per_sec" profile);
        match engine_field profile "alloc_bytes_per_event" with
        | Some a when a >= 0. -> ()
        | Some _ -> err "engine.%s.alloc_bytes_per_event must be >= 0" profile
        | None -> err "missing engine.%s.alloc_bytes_per_event" profile
      in
      check_profile "traced";
      check_profile "quiet";
      check_profile "fiber_traced";
      check_profile "fiber_quiet";
      List.iter
        (fun (q_prof, t_prof) ->
          match
            ( engine_field q_prof "alloc_bytes_per_event",
              engine_field t_prof "alloc_bytes_per_event" )
          with
          | Some q, Some t when q >= t ->
              err "%s profile allocates %.1f B/event, %s only %.1f" q_prof q
                t_prof t
          | _ -> ())
        [ ("quiet", "traced"); ("fiber_quiet", "fiber_traced") ];
      (match Option.bind (member "queue_compare" v) to_list with
      | Some (_ :: _ as rows) ->
          List.iteri
            (fun i row ->
              (match Option.bind (member "workload" row) to_string_opt with
              | Some _ -> ()
              | None -> err "queue_compare[%d]: missing workload" i);
              let wall key = Option.bind (member key row) to_float in
              match (wall "wall_min", wall "wall_seconds", wall "wall_max") with
              | Some lo, Some mid, Some hi when 0. < lo && lo <= mid && mid <= hi -> ()
              | _ -> err "queue_compare[%d]: bad wall_min/wall_seconds/wall_max" i)
            rows
      | Some [] -> err "queue_compare is empty"
      | None -> err "missing queue_compare");
      (match Option.bind (member "blocked_scaling" v) to_list with
      | Some rows -> (
          let cost blocked =
            List.find_map
              (fun row ->
                match
                  ( Option.bind (member "blocked" row) to_int,
                    Option.bind (member "ns_per_event" row) to_float )
                with
                | Some b, Some ns when b = blocked -> Some ns
                | _ -> None)
              rows
          in
          List.iter
            (fun b ->
              match cost b with
              | Some ns when ns > 0. -> ()
              | _ -> err "blocked_scaling: bad or missing row for %d blocked" b)
            blocked_counts;
          (* waits nobody signals must cost nothing per event *)
          match (cost 10, cost 10_000) with
          | Some few, Some many when many > 2. *. few ->
              err "blocked_scaling: 10k blocked cost %.0f ns/event, over 2x 10's %.0f"
                many few
          | _ -> ())
      | None -> err "missing blocked_scaling");
      (match Option.bind (member "campaign" v) to_list with
      | Some (_ :: _ as cells) ->
          List.iteri
            (fun i cell ->
              let num key = Option.bind (member key cell) to_float in
              (match Option.bind (member "jobs" cell) to_int with
              | Some j when j >= 1 -> ()
              | _ -> err "campaign[%d]: bad jobs" i);
              (match Option.bind (member "oversubscribed" cell) to_bool with
              | Some _ -> ()
              | None -> err "campaign[%d]: missing oversubscribed" i);
              (match num "runs" with
              | Some r when r > 0. -> ()
              | _ -> err "campaign[%d]: bad runs" i);
              match num "runs_per_sec" with
              | Some r when r > 0. -> ()
              | _ -> err "campaign[%d]: bad runs_per_sec" i)
            cells
      | Some [] -> err "campaign is empty"
      | None -> err "missing campaign");
      let check_rows key fields =
        match Option.bind (member key v) to_list with
        | Some (_ :: _ as rows) ->
            List.iteri
              (fun i row ->
                List.iter
                  (fun f ->
                    if member f row = None then err "%s[%d]: missing %s" key i f)
                  fields)
              rows
        | Some [] -> err "%s is empty" key
        | None -> err "missing %s" key
      in
      check_rows "rsm" [ "backend"; "batch"; "throughput_per_kvt"; "ok" ];
      check_rows "obj"
        [
          "object";
          "apply_ops_per_sec";
          "history_events";
          "wg_states";
          "wg_seconds";
          "linearizable";
        ];
      (match Option.bind (member "obj" v) to_list with
      | Some rows ->
          List.iteri
            (fun i row ->
              (match Option.bind (member "apply_ops_per_sec" row) to_float with
              | Some r when r > 0. -> ()
              | _ -> err "obj[%d]: bad apply_ops_per_sec" i);
              (match Option.bind (member "wg_states" row) to_int with
              | Some s when s >= 1 -> ()
              | _ -> err "obj[%d]: bad wg_states" i);
              match Option.bind (member "linearizable" row) to_bool with
              | Some true -> ()
              | _ -> err "obj[%d]: history not linearizable" i)
            rows
      | None -> ());
      check_rows "shard"
        [
          "backend";
          "shards";
          "singles_acked";
          "txs_committed";
          "abort_rate";
          "throughput_per_kvt";
          "ok";
        ];
      (match Option.bind (member "shard" v) to_list with
      | Some rows ->
          List.iteri
            (fun i row ->
              (match Option.bind (member "shards" row) to_int with
              | Some s when s >= 1 -> ()
              | _ -> err "shard[%d]: bad shards" i);
              (match Option.bind (member "throughput_per_kvt" row) to_float with
              | Some t when t > 0. -> ()
              | _ -> err "shard[%d]: bad throughput_per_kvt" i);
              match Option.bind (member "ok" row) to_bool with
              | Some true -> ()
              | _ -> err "shard[%d]: run reported violations" i)
            rows
      | None -> ());
      check_rows "wal_overhead"
        [ "backend"; "store"; "virtual_time"; "appends"; "fsyncs"; "ok" ];
      check_rows "mcheck"
        [
          "model";
          "depth";
          "reduction";
          "executions";
          "violating";
          "schedules_per_sec";
        ];
      check_rows "pct"
        [
          "model";
          "schedules";
          "d";
          "violating";
          "probability";
          "schedules_per_sec";
        ];
      check_rows "detect"
        [
          "kind";
          "period";
          "window";
          "suspicions";
          "false_suspicions";
          "heartbeats_per_kvt";
          "ok";
        ];
      (match Option.bind (member "detect" v) to_list with
      | Some rows ->
          List.iteri
            (fun i row ->
              (match Option.bind (member "heartbeats_per_kvt" row) to_float with
              | Some h when h > 0. -> ()
              | _ -> err "detect[%d]: bad heartbeats_per_kvt" i);
              (match Option.bind (member "kind" row) to_string_opt with
              | Some "window" -> (
                  (* the window sweep exists to show the latency curve *)
                  match
                    Option.bind (member "mean_decision_latency" row) to_float
                  with
                  | Some l when l > 0. -> ()
                  | _ -> err "detect[%d]: window row lacks decision latency" i)
              | Some "period" -> ()
              | _ -> err "detect[%d]: bad kind" i);
              match Option.bind (member "ok" row) to_bool with
              | Some true -> ()
              | _ -> err "detect[%d]: run reported violations or no decision" i)
            rows
      | None -> ());
      (match Option.bind (member "mcheck" v) to_list with
      | Some rows ->
          List.iteri
            (fun i row ->
              (match Option.bind (member "executions" row) to_int with
              | Some e when e >= 1 -> ()
              | _ -> err "mcheck[%d]: bad executions" i);
              match Option.bind (member "schedules_per_sec" row) to_float with
              | Some r when r > 0. -> ()
              | _ -> err "mcheck[%d]: bad schedules_per_sec" i)
            rows
      | None -> ());
      (match Option.bind (member "pct" v) to_list with
      | Some rows ->
          List.iteri
            (fun i row ->
              (match Option.bind (member "schedules" row) to_int with
              | Some s when s >= 1 -> ()
              | _ -> err "pct[%d]: bad schedules" i);
              match Option.bind (member "probability" row) to_float with
              | Some p when p >= 0. && p <= 1. -> ()
              | _ -> err "pct[%d]: probability outside [0, 1]" i)
            rows
      | None -> ()));
  match List.rev !errors with
  | [] ->
      Format.printf "%s: valid %s baseline@." file schema;
      0
  | errs ->
      List.iter (Format.eprintf "%s: %s@." file) errs;
      1

(* --- baseline comparison (S2) ------------------------------------------

   [--compare OLD.json] collects every numeric leaf of the old and new
   baselines as a dotted path, prints per-metric deltas, and exits
   non-zero if the headline quiet engine throughput regressed by more
   than the threshold.  The new side is regenerated in-process unless
   [--compare-to NEW.json] points at an already-written baseline (CI
   reuses the fresh file it just validated). *)

let collect_metrics json =
  let out = ref [] in
  (* Rows inside lists are labelled by their identifying fields — the
     string-valued members plus the small-int discriminators — so the
     same logical cell lines up across files even if row order moves. *)
  let row_label i item =
    let tags =
      match item with
      | Json.Obj fields ->
          List.filter_map
            (fun (k, v) ->
              match v with
              | Json.String s -> Some s
              | Json.Int n
                when List.mem k
                       [ "jobs"; "shards"; "period"; "window"; "depth"; "batch" ]
                ->
                  Some (Printf.sprintf "%s%d" k n)
              | _ -> None)
            fields
      | _ -> []
    in
    match tags with [] -> string_of_int i | ts -> String.concat "." ts
  in
  let rec go path v =
    match v with
    | Json.Int i -> out := (path, float_of_int i) :: !out
    | Json.Float f -> out := (path, f) :: !out
    | Json.Obj fields -> List.iter (fun (k, v) -> go (path ^ "." ^ k) v) fields
    | Json.List items ->
        List.iteri (fun i item -> go (path ^ "." ^ row_label i item) item) items
    | Json.Null | Json.Bool _ | Json.String _ -> ()
  in
  go "" json;
  List.rev !out

let gate_metric = ".engine.quiet.events_per_sec"

let compare_bench_json ~threshold ~old_file ~new_source =
  let load file = Json.parse (In_channel.with_open_text file In_channel.input_all) in
  match load old_file with
  | exception (Json.Parse_error msg | Sys_error msg) ->
      Format.eprintf "%s: %s@." old_file msg;
      1
  | old_json -> (
      let new_json =
        match new_source with
        | Some file -> (
            match load file with
            | exception (Json.Parse_error msg | Sys_error msg) ->
                Format.eprintf "%s: %s@." file msg;
                exit 1
            | v ->
                Format.printf "comparing %s (old) vs %s (new)@." old_file file;
                v)
        | None ->
            Format.printf
              "comparing %s (old) vs freshly measured baseline (new)@."
              old_file;
            bench_core_json ()
      in
      let old_m = collect_metrics old_json and new_m = collect_metrics new_json in
      let missing = ref 0 in
      Format.printf "%-64s %14s %14s %9s@." "metric" "old" "new" "delta";
      Format.printf "%s@." (String.make 104 '-');
      List.iter
        (fun (path, ov) ->
          match List.assoc_opt path new_m with
          | None -> incr missing
          | Some nv ->
              let delta =
                if Float.abs ov > 1e-12 then (nv -. ov) /. ov *. 100. else 0.
              in
              Format.printf "%-64s %14.4g %14.4g %+8.1f%%@." path ov nv delta)
        old_m;
      let only_new =
        List.length (List.filter (fun (p, _) -> List.assoc_opt p old_m = None) new_m)
      in
      if !missing > 0 then
        Format.printf "(%d metrics only in old baseline)@." !missing;
      if only_new > 0 then
        Format.printf "(%d metrics only in new baseline)@." only_new;
      match (List.assoc_opt gate_metric old_m, List.assoc_opt gate_metric new_m) with
      | Some ov, Some nv ->
          let floor = ov *. (1. -. (threshold /. 100.)) in
          if nv < floor then begin
            Format.eprintf
              "REGRESSION: %s fell %.1f%% (%.3g -> %.3g, threshold %.0f%%)@."
              gate_metric
              ((ov -. nv) /. ov *. 100.)
              ov nv threshold;
            1
          end
          else begin
            Format.printf "gate ok: %s %.3g -> %.3g (threshold %.0f%%)@."
              gate_metric ov nv threshold;
            0
          end
      | _ ->
          Format.eprintf "REGRESSION GATE: %s missing from a baseline@."
            gate_metric;
          1)

(* --- engine micro-bench smoke (S6) -------------------------------------

   A seconds-long sanity run for every PR: the flat and fiber quiet
   profiles must clear a catastrophic-failure floor.  The floor is far
   below the committed baseline on purpose — CI machines vary widely —
   it exists to catch the engine accidentally falling off the fast
   path (per-event closures, quiet tracing, O(n) queue ops). *)
let engine_smoke () =
  let flat_rate, flat_alloc = engine_flat_profile ~tracing:false ~iters:200_000 in
  let fiber_rate, fiber_alloc = engine_profile ~tracing:false ~iters:20_000 in
  Format.printf "engine smoke (quiet profiles)@.";
  Format.printf "  flat  : %10.3g events/sec  %6.1f B/event@." flat_rate
    flat_alloc;
  Format.printf "  fiber : %10.3g events/sec  %6.1f B/event@." fiber_rate
    fiber_alloc;
  let floor = 5e6 in
  if flat_rate < floor then begin
    Format.eprintf "FAIL: flat quiet %.3g events/sec below %.0e floor@."
      flat_rate floor;
    1
  end
  else begin
    Format.printf "ok: flat quiet clears the %.0e events/sec floor@." floor;
    0
  end

(* Rotate seeds so the benchmark averages over schedules instead of
   re-simulating one fixed run. *)
let rotating f =
  let seed = ref 0 in
  Staged.stage (fun () ->
      incr seed;
      f ((!seed mod 97) + 1))

let tests =
  Test.make_grouped ~name:"ooc"
    [
      Test.make_grouped ~name:"e1-e2.ben-or"
        [
          Test.make ~name:"decomposed.n8" (rotating (benor_run Ben_or.Runner.Decomposed));
          Test.make ~name:"monolithic.n8" (rotating (benor_run Ben_or.Runner.Monolithic));
          Test.make ~name:"decomposed.crashes" (rotating benor_crashy);
        ];
      Test.make_grouped ~name:"e3-e4.phase-king"
        [
          Test.make ~name:"decomposed.n10"
            (rotating (phase_king_run Phase_king.Runner.Decomposed));
          Test.make ~name:"monolithic.n10"
            (rotating (phase_king_run Phase_king.Runner.Monolithic));
          Test.make ~name:"decomposed.n19"
            (rotating (phase_king_run ~n:19 Phase_king.Runner.Decomposed));
        ];
      Test.make_grouped ~name:"e5-e6.raft"
        [
          Test.make ~name:"consensus.n5" (rotating (raft_run ~crash:false));
          Test.make ~name:"consensus.leader-crash" (rotating (raft_run ~crash:true));
          Test.make ~name:"decentralized.n7" (rotating decentralized_run);
        ];
      Test.make_grouped ~name:"e7.sharedmem"
        [
          Test.make ~name:"consensus.n6" (rotating sharedmem_run);
          Test.make ~name:"vac-from-two-ac.n5" (rotating vac_from_two_ac_run);
        ];
      Test.make_grouped ~name:"rsm"
        (List.map
           (fun b ->
             Test.make
               ~name:(Printf.sprintf "%s.n5" (Rsm.Backend.name b))
               (rotating (rsm_run b)))
           Rsm.Backend.all);
      Test.make_grouped ~name:"shard"
        [
          Test.make ~name:"ben-or.s4" (rotating (shard_run Rsm.Backend.ben_or));
          Test.make ~name:"raft.s4" (rotating (shard_run Rsm.Backend.raft));
          Test.make ~name:"ben-or.s1"
            (rotating (shard_run ~shards:1 Rsm.Backend.ben_or));
        ];
      Test.make_grouped ~name:"store"
        [
          Test.make ~name:"rsm.ben-or.wal"
            (rotating (rsm_durable_run ~snapshot_every:0 Rsm.Backend.ben_or));
          Test.make ~name:"rsm.ben-or.wal-snap4"
            (rotating (rsm_durable_run ~snapshot_every:4 Rsm.Backend.ben_or));
          Test.make ~name:"rsm.raft.wal"
            (rotating (rsm_durable_run ~snapshot_every:0 Rsm.Backend.raft));
        ];
      Test.make_grouped ~name:"nemesis"
        (List.map
           (fun b ->
             Test.make
               ~name:(Printf.sprintf "faulted-run.%s.n5" (Rsm.Backend.name b))
               (rotating (nemesis_run b)))
           Rsm.Backend.all);
      Test.make_grouped ~name:"mcheck"
        [
          (* Whole bounded explorations per iteration, so ns/run here is
             wall per frontier; the json baseline reports schedules/sec. *)
          Test.make ~name:"explore.toy-ac.d6"
            (Staged.stage (fun () ->
                 ignore
                   (Mcheck.Explorer.explore ~jobs:1
                      ~config:
                        { Mcheck.Explorer.default_config with depth = 6 }
                      (Mcheck.Models.toy_ac ~check_termination:true ())
                     : Mcheck.Explorer.report)));
          Test.make ~name:"explore.ben-or.d4"
            (Staged.stage (fun () ->
                 ignore
                   (Mcheck.Explorer.explore ~jobs:1
                      ~config:
                        { Mcheck.Explorer.default_config with depth = 4 }
                      (Mcheck.Models.benor ~check_termination:false ())
                     : Mcheck.Explorer.report)));
        ];
      (* E8 is the decomposed/monolithic pairs above read side by side. *)
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true
      ~compaction:false ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  let results = Analyze.merge ols instances results in
  (* Plain-text report: one line per test, nanoseconds per run. *)
  Format.printf "@.Bechamel micro-benchmarks (ns per simulated run, OLS fit)@.";
  Format.printf "%s@." (String.make 72 '-');
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "%-44s %14.0f ns/run@." name est
      | Some _ | None -> Format.printf "%-44s (no estimate)@." name)
    (List.sort compare rows);
  Format.printf "@."

let rec arg_value key = function
  | [] -> None
  | flag :: value :: _ when flag = key -> Some value
  | _ :: rest -> arg_value key rest

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  (match arg_value "--validate-json" args with
  | Some file -> exit (validate_bench_json file)
  | None -> ());
  (match arg_value "--compare" args with
  | Some old_file ->
      let threshold =
        match arg_value "--compare-threshold" args with
        | Some s -> (
            match float_of_string_opt s with
            | Some t when t > 0. -> t
            | _ ->
                Format.eprintf "bad --compare-threshold %S@." s;
                exit 2)
        | None -> 20.
      in
      exit
        (compare_bench_json ~threshold ~old_file
           ~new_source:(arg_value "--compare-to" args))
  | None -> ());
  if has "--engine-smoke" then exit (engine_smoke ());
  if has "--json" then begin
    write_bench_json
      (Option.value (arg_value "--json-out" args) ~default:"BENCH_core.json");
    exit 0
  end;
  let scale =
    if has "full" then Workload.Experiments.Full else Workload.Experiments.Quick
  in
  if not (has "bench-only") then begin
    Format.printf "Experiment tables (scale: %s) — paper-shape checks@.@."
      (if scale = Workload.Experiments.Full then "full" else "quick");
    Workload.Experiments.run_all ~scale Format.std_formatter;
    (* RSM batching throughput: acked cmds per 1000 virtual-time units at
       batch sizes {1, 8, 32} — batching should win monotonically. *)
    let summaries =
      if scale = Workload.Experiments.Full then
        Workload.Rsm_load.sweep_batches Format.std_formatter
      else
        Workload.Rsm_load.sweep_batches ~clients:12 ~commands:3 ~seeds:1
          Format.std_formatter
    in
    if List.exists (fun s -> not s.Workload.Rsm_load.ok) summaries then
      Format.printf "WARNING: some RSM sweep cells reported violations@.";
    (* Sharded scaling: the same traffic at 1/2/4 shards — single-shard
       ops/kvt should grow with the shard count. *)
    let shard_cells =
      let seeds = if scale = Workload.Experiments.Full then 3 else 1 in
      Workload.Shard_load.sweep_shards ~load:shard_bench_load ~seeds
        Format.std_formatter
    in
    if List.exists (fun s -> not s.Workload.Shard_load.ok) shard_cells then
      Format.printf "WARNING: some shard sweep cells reported violations@.";
    store_overhead_table ~scale Format.std_formatter;
    nemesis_campaign_table ~scale Format.std_formatter
  end;
  if not (has "tables-only") then run_benchmarks ()
