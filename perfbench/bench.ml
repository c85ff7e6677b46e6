(* Host-time benchmark of the simulated consensus service.

   One invocation measures one workload.  A workload is a family of
   scenarios: each scenario is one complete simulated run through the
   stack (clients -> Tob ordering -> consensus -> WAL -> apply -> ack,
   plus the checkers the run carries).  The benchmark runs rounds of
   scenarios until [--seconds] of wall time have passed.  Every round
   draws fresh inputs from [--seed] and the round number, so nothing a
   previous round computed can be reused.  Round 0 warms the process up
   and is not measured.

   Correctness: every scenario must pass the program's own checkers
   with every operation completed, and the first measured round must
   replay to identical replica digests.

   [--trace 0] prints the end-to-end metrics: host microseconds per
   completed operation and the per-round set-up time, both medians over
   rounds.  [--trace 1] wraps the consensus backend in a timing probe
   and prints per-layer figures instead.  The last line of standard
   output is one JSON object. *)

(* ---------- clocks ---------- *)

(* Process CPU time, which leaves out the time this process spends
   descheduled on a shared host. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---------- per-scenario outcome ---------- *)

type tally = {
  ops : int;  (** client operations submitted *)
  completed : int;  (** operations that reached a final answer *)
  ok : bool;  (** every checker the run carries passed *)
  fingerprint : string;  (** replica digests + virtual end time *)
  messages : int;  (** network messages sent *)
  instances : int;  (** binary consensus instances *)
  slots : int;  (** log slots decided *)
  appends : int;  (** WAL records appended *)
  fsyncs : int;
  latencies : float array;
      (** submit-to-ack, virtual time; unboxed, so rounds kept for the
          report add nothing for the GC to scan *)
}

let sum_stats f (stats : Store.Disk.stats array) =
  Array.fold_left (fun a s -> a + f s) 0 stats

let tally_of_rsm ?(extra_ok = true) (r : _ Rsm.Runner.report) =
  {
    ops = r.Rsm.Runner.submitted;
    completed = r.acked;
    ok =
      extra_ok
      && r.engine_outcome = Dsim.Engine.Quiescent
      && r.violations = [] && r.completeness = [] && r.durability = []
      && r.digests_agree && r.acked = r.submitted;
    fingerprint =
      String.concat "," (Array.to_list r.digests) ^ string_of_int r.virtual_time;
    messages = r.messages_sent;
    instances = r.instances;
    slots = r.slots;
    appends = sum_stats (fun s -> s.Store.Disk.appends) r.store_stats;
    fsyncs = sum_stats (fun s -> s.Store.Disk.fsyncs) r.store_stats;
    latencies = Array.of_list r.latencies;
  }

(* ---------- workloads ---------- *)

(* Building a scenario generates its inputs (the round's set-up);
   running it takes the backend to use — the plain one, or the same one
   wrapped in the timing probe. *)
type scenario = Rsm.Backend.t -> tally

let store = Some Rsm.Runner.default_store_config

let rsm_config ~n ~batch ~seed ~ops backend =
  {
    (Rsm.Runner.default_config ~n ~ops) with
    Rsm.Runner.backend;
    batch;
    seed = Int64.of_int seed;
    quiet = true;
    store;
  }

(* rsm: one 5-replica KV group, closed-loop clients, durable WAL, no
   faults — the plain request path. *)
let rsm_scenario _index seed : scenario =
  let ops =
    Workload.Rsm_load.gen_ops ~seed:(Int64.of_int seed) ~clients:8 ~commands:12
      ()
  in
  fun backend ->
    tally_of_rsm
      (Rsm.Runner.run Workload.Rsm_load.kv_app
         (rsm_config ~n:5 ~batch:8 ~seed ~ops backend))

(* shard: four 3-replica groups behind the router, 10% cross-shard
   transactions committed by 2PC over the logs. *)
let shard_scenario _index seed : scenario =
  let cfg =
    Workload.Shard_load.config ~shards:4 ~replicas:3 ~seed ?store ~quiet:true
      ~backend:Rsm.Backend.ben_or ()
  in
  fun backend ->
    let r = Shard.Runner.run { cfg with Shard.Runner.backend } in
    let s = Workload.Shard_load.summarize cfg r in
    let srs = Array.to_list r.Shard.Runner.shard_reports in
    let total f = List.fold_left (fun a sr -> a + f sr) 0 srs in
    let ops = r.singles_submitted + r.txs_started in
    let completed = r.singles_acked + r.txs_committed + r.txs_aborted in
    {
      ops;
      completed;
      ok =
        s.Workload.Shard_load.ok
        && r.engine_outcome = Dsim.Engine.Quiescent
        && completed = ops;
      fingerprint =
        String.concat ","
          (List.concat_map
             (fun sr -> Array.to_list sr.Shard.Runner.sr_digests)
             srs)
        ^ string_of_int r.virtual_time;
      messages = total (fun sr -> sr.Shard.Runner.sr_messages_sent);
      instances = total (fun sr -> sr.Shard.Runner.sr_instances);
      slots = total (fun sr -> sr.Shard.Runner.sr_slots);
      appends =
        total (fun sr ->
            sum_stats (fun s -> s.Store.Disk.appends) sr.Shard.Runner.sr_store_stats);
      fsyncs =
        total (fun sr ->
            sum_stats (fun s -> s.Store.Disk.fsyncs) sr.Shard.Runner.sr_store_stats);
      latencies = Array.of_list (r.single_latencies @ r.tx_latencies);
    }

(* obj: the universal construction over each registered object in turn,
   every history judged by the Wing–Gong linearizability checker. *)
let obj_scenario index seed : scenario =
  let objects = Array.of_list Obj.Registry.all in
  let (module O : Obj.Spec.S) = snd objects.(index mod Array.length objects) in
  let module Rep = Obj.Replicated.Make (O) in
  let ops =
    Workload.Load.gen_obj_ops
      (module O)
      ~keys:8 ~zipf_s:1.1 ~seed:(Int64.of_int seed) ~clients:3 ~commands:8 ()
  in
  fun backend ->
    let r = Rsm.Runner.run (Rep.app ()) (rsm_config ~n:5 ~batch:8 ~seed ~ops backend) in
    let linearizable =
      match (Rep.check r.Rsm.Runner.history).Rep.W.verdict with
      | Rep.W.Linearizable _ -> true
      | _ -> false
    in
    tally_of_rsm ~extra_ok:linearizable r

(* nemesis: the KV group under a seeded benign fault plan — crashes with
   restarts, partitions that heal, message and storage faults — so every
   operation still completes, through recovery. *)
let nemesis_scenario _index seed : scenario =
  let profile =
    { (Nemesis.Gen.default ~n:5) with Nemesis.Gen.benign = true; storage = true }
  in
  let plan = Nemesis.Gen.generate profile ~seed in
  let ops =
    Workload.Rsm_load.gen_ops ~seed:(Int64.of_int seed) ~clients:4 ~commands:6 ()
  in
  fun backend ->
    tally_of_rsm
      (Rsm.Runner.run Workload.Rsm_load.kv_app
         {
           (rsm_config ~n:5 ~batch:4 ~seed ~ops backend) with
           Rsm.Runner.inject = Some (Nemesis.Interp.install_rsm plan);
           ack_timeout = 400;
           max_events = 400_000;
         })

type workload = {
  name : string;
  backend : Rsm.Backend.t;
  count : int;  (** scenario instances per round *)
  make : int -> int -> scenario;  (** index in the round, then seed *)
}

let workloads =
  [
    { name = "rsm"; backend = Rsm.Backend.raft; count = 12; make = rsm_scenario };
    { name = "shard"; backend = Rsm.Backend.ben_or; count = 48; make = shard_scenario };
    { name = "obj"; backend = Rsm.Backend.omega; count = 144; make = obj_scenario };
    {
      name = "nemesis";
      backend = Rsm.Backend.ben_or;
      count = 64;
      make = nemesis_scenario;
    };
  ]

(* ---------- consensus probe ---------- *)

type probe = {
  mutable calls : int;
  mutable secs : float;
  mutable words : float;
}

let probed p (module B : Rsm.Backend.S) : Rsm.Backend.t =
  (module struct
    let name = B.name

    let decide ~seed ~inputs =
      let w0 = Gc.minor_words () in
      let t0 = cpu () in
      let r = B.decide ~seed ~inputs in
      p.secs <- p.secs +. (cpu () -. t0);
      p.words <- p.words +. (Gc.minor_words () -. w0);
      p.calls <- p.calls + 1;
      r
  end)

(* ---------- reference kernel ---------- *)

(* Host speed on a shared machine drifts: load elsewhere on the host can
   slow every instruction of this process by 1.5x or more, changing
   within a second, and CPU time does not exclude that.  So a short
   fixed kernel with the simulator's profile (hashing, boxed
   allocation, list building, sorting) is timed between slices of
   about [slice_s] of scenario work, and each slice's time is scaled by
   [reference_s] over the mean of the kernel times on either side —
   i.e. reported as if measured on a host where the kernel takes
   exactly [reference_s] (about its time on a quiet 2-core x86-64
   container).  The kernel uses the standard library only, so a change
   to the program moves the scaled figure and leaves the kernel alone. *)
let reference_s = 0.004

let slice_s = 0.015

let kernel_sink = ref 0

let time_kernel () =
  let t0 = cpu () in
  let h = Hashtbl.create 16 in
  for i = 0 to 8_000 do
    Hashtbl.replace h (i * 7919 mod 65_521) (string_of_int i)
  done;
  let l = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []) in
  kernel_sink := !kernel_sink + List.length l;
  cpu () -. t0

(* ---------- rounds ---------- *)

let scenario_seed ~seed ~round i = (((seed land 0xFFFFF) * 100_000) + round) * 1_000 + i

let build (w : workload) ~seed ~round =
  List.init w.count (fun i -> w.make i (scenario_seed ~seed ~round i))

type round = {
  setup_s : float;  (** CPU seconds to generate the round's inputs *)
  run_s : float;  (** CPU seconds to run every scenario of the round *)
  scale : float;  (** scaled over raw [run_s] *)
  words : float;  (** words allocated while running *)
  consensus_s : float;  (** part of [run_s] inside the consensus backend *)
  consensus_calls : int;
  consensus_words : float;
  tallies : tally list;
}

(* Runs the round's scenarios, timing the kernel after every slice;
   returns the tallies, the raw and the scaled CPU seconds, and the
   words the scenarios allocated. *)
let run_sliced scenarios backend =
  let raw = ref 0. and scaled = ref 0. and slice = ref 0. and words = ref 0. in
  let kernel = ref (time_kernel ()) in
  let close_slice () =
    let k = time_kernel () in
    scaled := !scaled +. (!slice *. reference_s /. ((!kernel +. k) /. 2.));
    raw := !raw +. !slice;
    slice := 0.;
    kernel := k
  in
  let tallies =
    List.map
      (fun s ->
        let w0 = Gc.minor_words () in
        let c0 = cpu () in
        let t = s backend in
        slice := !slice +. (cpu () -. c0);
        words := !words +. (Gc.minor_words () -. w0);
        if !slice >= slice_s then close_slice ();
        t)
      scenarios
  in
  if !slice > 0. then close_slice ();
  (tallies, !raw, !scaled, !words)

let run_round (w : workload) probe backend ~seed ~round =
  let t0 = cpu () in
  let scenarios = build w ~seed ~round in
  let setup_s = cpu () -. t0 in
  Gc.full_major ();
  let s0 = probe.secs and n0 = probe.calls and cw0 = probe.words in
  let tallies, run_s, scaled_s, words = run_sliced scenarios backend in
  {
    setup_s;
    run_s;
    scale = scaled_s /. run_s;
    words;
    consensus_s = probe.secs -. s0;
    consensus_calls = probe.calls - n0;
    consensus_words = probe.words -. cw0;
    tallies;
  }

(* ---------- statistics and output ---------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median xs =
  let a = sorted (Array.of_list xs) in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile xs q =
  let a = sorted xs in
  a.(max 0 (int_of_float (Float.ceil (q *. float_of_int (Array.length a))) - 1))

let sumf f l = List.fold_left (fun a x -> a +. f x) 0. l
let sumi f l = List.fold_left (fun a x -> a + f x) 0 l
let tally_sum f r = sumi f r.tallies

let json_metric (name, value, unit) =
  Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name value unit

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME rsm | shard | obj | nemesis");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let usage msg =
    prerr_endline ("bench: " ^ msg);
    exit 2
  in
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ("unknown workload " ^ !workload)
  in
  if !seconds < 1 then usage "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then usage "--trace must be 0 or 1";
  let seed = !seed in
  let probe = { calls = 0; secs = 0.; words = 0. } in
  let backend = if !trace = 1 then probed probe w.backend else w.backend in
  (* round 0 warms caches and the heap up and is not measured *)
  let warmup = run_round w probe backend ~seed ~round:0 in
  let deadline = Unix.gettimeofday () +. float_of_int !seconds in
  let rec loop round acc =
    if round > 1 && Unix.gettimeofday () >= deadline then List.rev acc
    else loop (round + 1) (run_round w probe backend ~seed ~round :: acc)
  in
  let rounds = loop 1 [] in
  (* determinism: the first measured round's scenarios replay exactly *)
  let replay =
    List.map (fun s -> (s backend).fingerprint) (build w ~seed ~round:1)
  in
  let all_rounds = warmup :: rounds in
  let checked = ref true in
  List.iteri
    (fun round r ->
      List.iteri
        (fun i t ->
          if not t.ok then begin
            checked := false;
            Printf.eprintf "FAILED: round %d scenario %d (seed %d)\n" round i
              (scenario_seed ~seed ~round i)
          end)
        r.tallies)
    all_rounds;
  let replayed = replay = List.map (fun t -> t.fingerprint) (List.hd rounds).tallies in
  if not replayed then prerr_endline "FAILED: round 1 did not replay identically";
  let correct = !checked && replayed in
  let attempted = sumi (tally_sum (fun t -> t.ops)) all_rounds in
  let failed = sumi (tally_sum (fun t -> t.ops - t.completed)) all_rounds in
  let completed = float_of_int (sumi (tally_sum (fun t -> t.completed)) rounds) in
  let us_per_op =
    List.map
      (fun r -> r.run_s *. r.scale /. float_of_int (tally_sum (fun t -> t.completed) r) *. 1e6)
      rounds
  in
  let kernel_ms = List.map (fun r -> 1e3 *. reference_s /. r.scale) rounds in
  Printf.eprintf
    "%s seed %d: %d rounds x %d scenarios, %.0f ops measured; us/op median %.2f \
     [%.2f, %.2f]; kernel ms median %.2f min %.2f\n"
    w.name seed (List.length rounds) w.count completed (median us_per_op)
    (List.fold_left min infinity us_per_op)
    (List.fold_left max 0. us_per_op)
    (median kernel_ms)
    (List.fold_left min infinity kernel_ms);
  let metrics =
    if !trace = 0 then
      [
        ("us_per_op", median us_per_op, "us");
        ("setup_s", median (List.map (fun r -> r.setup_s *. r.scale) all_rounds), "s");
      ]
    else
      let scaled f = sumf (fun r -> f r *. r.scale) rounds in
      let count f = float_of_int (sumi (tally_sum f) rounds) in
      let per_op x = x /. completed in
      let consensus_s = scaled (fun r -> r.consensus_s) in
      let lat =
        Array.concat (List.concat_map (fun r -> List.map (fun t -> t.latencies) r.tallies) rounds)
      in
      [
        ("consensus_share", 100. *. consensus_s /. scaled (fun r -> r.run_s), "%");
        ( "consensus_us_per_instance",
          consensus_s /. float_of_int (sumi (fun r -> r.consensus_calls) rounds) *. 1e6,
          "us" );
        ( "outer_ns_per_message",
          scaled (fun r -> r.run_s -. r.consensus_s) /. count (fun t -> t.messages) *. 1e9,
          "ns" );
        ("instances_per_op", per_op (count (fun t -> t.instances)), "count");
        ("messages_per_op", per_op (count (fun t -> t.messages)), "count");
        ("ops_per_slot", completed /. count (fun t -> t.slots), "count");
        ("wal_appends_per_op", per_op (count (fun t -> t.appends)), "count");
        ("fsyncs_per_op", per_op (count (fun t -> t.fsyncs)), "count");
        ("consensus_words_per_op", per_op (sumf (fun r -> r.consensus_words) rounds), "words");
        ( "outer_words_per_op",
          per_op (sumf (fun r -> r.words -. r.consensus_words) rounds),
          "words" );
        ("vlatency_p50", percentile lat 0.5, "vt");
        ("vlatency_p99", percentile lat 0.99, "vt");
      ]
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map json_metric metrics))
