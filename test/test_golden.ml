(* Golden pins: seeded end-to-end runs whose observable outcome is
   fixed to the values below.  The simulator's scheduling mechanism
   (event queues, batching, how blocked fibers are woken) may change
   freely underneath; these figures may not.  Each pin records the
   replica digests (hashed), the virtual end time, the messages sent and
   the backend instances consumed; two pins hash a whole trace, the
   [wal/*] pins hash the bytes left on every replica's disk, and the
   [backend/*] pins fix every nested consensus decision and charge. *)

let short s = String.sub (Digest.to_hex (Digest.string s)) 0 12
let digests a = short (String.concat "," (Array.to_list a))
let trace_md5 tr = Digest.to_hex (Digest.string (Fmt.str "%a" Dsim.Trace.dump tr))

let rsm_line (r : _ Rsm.Runner.report) =
  Printf.sprintf "vt=%d msgs=%d inst=%d acked=%d dig=%s" r.Rsm.Runner.virtual_time
    r.messages_sent r.instances r.acked (digests r.digests)

let rsm_config ~backend ~seed ~ops =
  {
    (Rsm.Runner.default_config ~n:5 ~ops) with
    Rsm.Runner.backend;
    batch = 4;
    seed = Int64.of_int seed;
    quiet = true;
    store = Some Rsm.Runner.default_store_config;
  }

let rsm_pin backend seed =
  let ops =
    Workload.Rsm_load.gen_ops ~seed:(Int64.of_int seed) ~clients:4 ~commands:6 ()
  in
  rsm_line
    (Rsm.Runner.run Workload.Rsm_load.kv_app (rsm_config ~backend ~seed ~ops))

let shard_pin seed =
  let cfg =
    Workload.Shard_load.config ~shards:4 ~replicas:3 ~seed
      ~store:Rsm.Runner.default_store_config ~quiet:true
      ~backend:Rsm.Backend.ben_or ()
  in
  let r = Shard.Runner.run cfg in
  let srs = Array.to_list r.Shard.Runner.shard_reports in
  let total f = List.fold_left (fun a sr -> a + f sr) 0 srs in
  Printf.sprintf "vt=%d msgs=%d inst=%d dig=%s" r.Shard.Runner.virtual_time
    (total (fun sr -> sr.Shard.Runner.sr_messages_sent))
    (total (fun sr -> sr.Shard.Runner.sr_instances))
    (digests
       (Array.of_list
          (List.concat_map (fun sr -> Array.to_list sr.Shard.Runner.sr_digests) srs)))

let obj_pin seed =
  let module Rep = Obj.Replicated.Make (Obj.Queue) in
  let ops =
    Workload.Load.gen_obj_ops
      (module Obj.Queue)
      ~keys:8 ~zipf_s:1.1 ~seed:(Int64.of_int seed) ~clients:3 ~commands:8 ()
  in
  rsm_line
    (Rsm.Runner.run (Rep.app ())
       (rsm_config ~backend:Rsm.Backend.omega ~seed ~ops))

(* WAL pins: the bytes a seeded run leaves on every replica's disk.  Per
   replica, the MD5 of its durable record data and of its snapshot
   payloads (the per-replica hashes are hashed again in replica order,
   like [dig=]); then the bytes appended group-wide.  The KV digest is not
   the codec, so these are what fix the WAL and snapshot encodings.
   Each run is pinned twice: with the default store, whose snapshots
   compact most records away, and with snapshots off ([/full-log]), so
   every record appended stays on disk. *)
let wal_line disks =
  let per_replica f =
    digests
      (Array.map
         (fun d -> Digest.to_hex (Digest.string (String.concat "\n" (f d))))
         disks)
  in
  let bytes =
    Array.fold_left (fun a d -> a + (Store.Disk.stats d).bytes_appended) 0 disks
  in
  Printf.sprintf "bytes=%d rec=%s snap=%s" bytes
    (per_replica (fun d ->
         List.map (fun r -> r.Store.Disk.data) (Store.Disk.records d)))
    (per_replica (fun d ->
         List.map (fun s -> s.Store.Disk.payload) (Store.Disk.snapshots d)))

let wal_stores =
  [
    ("", Rsm.Runner.default_store_config);
    ("/full-log", { Rsm.Runner.default_store_config with snapshot_every = 0 });
  ]

let wal_rsm_pin backend store =
  let ops = Workload.Rsm_load.gen_ops ~seed:1L ~clients:4 ~commands:6 () in
  (Rsm.Runner.run Workload.Rsm_load.kv_app
     { (rsm_config ~backend ~seed:1 ~ops) with store = Some store })
    .Rsm.Runner.disks
  |> wal_line

let wal_shard_pin store =
  let cfg =
    Workload.Shard_load.config ~shards:4 ~replicas:3 ~seed:1 ~store ~quiet:true
      ~backend:Rsm.Backend.ben_or ()
  in
  (Shard.Runner.run cfg).Shard.Runner.groups
  |> Array.map Rsm.Group.disks |> Array.to_list |> Array.concat |> wal_line

let wal_obj_pin (module O : Obj.Spec.S) store =
  let module Rep = Obj.Replicated.Make (O) in
  let ops =
    Workload.Load.gen_obj_ops (module O) ~keys:8 ~zipf_s:1.1 ~seed:1L
      ~clients:3 ~commands:8 ()
  in
  (Rsm.Runner.run (Rep.app ())
     {
       (rsm_config ~backend:Rsm.Backend.omega ~seed:1 ~ops) with
       store = Some store;
     })
    .Rsm.Runner.disks
  |> wal_line

let nemesis_run ?(quiet = true) seed =
  let profile =
    { (Nemesis.Gen.default ~n:5) with Nemesis.Gen.benign = true; storage = true }
  in
  let plan = Nemesis.Gen.generate profile ~seed in
  let ops =
    Workload.Rsm_load.gen_ops ~seed:(Int64.of_int seed) ~clients:4 ~commands:6 ()
  in
  Rsm.Runner.run Workload.Rsm_load.kv_app
    {
      (rsm_config ~backend:Rsm.Backend.ben_or ~seed ~ops) with
      Rsm.Runner.inject = Some (Nemesis.Interp.install_rsm plan);
      ack_timeout = 400;
      max_events = 400_000;
      quiet;
    }

let nemesis_pin seed = rsm_line (nemesis_run seed)

let detect_cfg = Nemesis.Detect_campaign.default_config ~n:5 ()

let detect_run ?(quiet = true) seed =
  Nemesis.Detect_campaign.run_plan ~quiet detect_cfg ~params:Detect.Timeout.default
    ~seed
    (Nemesis.Detect_campaign.plan_for detect_cfg ~seed)

let detect_pin seed =
  let r = detect_run seed in
  let opt f = function Some v -> f v | None -> "-" in
  Printf.sprintf "vt=%d msgs=%d hb=%d dec=%s at=%s" r.Detect.Runner.virtual_time
    r.messages_sent r.heartbeats_sent
    (String.concat ""
       (Array.to_list
          (Array.map (opt (fun b -> if b then "1" else "0")) r.decisions)))
    (String.concat "," (Array.to_list (Array.map (opt string_of_int) r.decided_at)))

(* Stable campaign reports: the whole sweep (key order, per-run gates,
   derived counts, coverage and the failing-outcome lines) rendered by
   [pp_report_stable].  The nemesis cell is deliberately
   under-provisioned (every replica may crash, storage faults on) and
   the shard and detect mutants trip their gates, so the lines that
   list failing outcomes are pinned too. *)
let stable pp r = Format.asprintf "%a" pp r

let nemesis_report () =
  let module C = Nemesis.Campaign in
  let n = 3 in
  let cfg =
    {
      (C.default_config ~n ()) with
      C.backends = Rsm.Backend.all;
      plans = 4;
      storage = true;
      ack_timeout = 200;
      max_events = 120_000;
      profile =
        { (Nemesis.Gen.default ~n) with Nemesis.Gen.max_down = n; max_actions = 12 };
    }
  in
  stable C.pp_report_stable (C.run cfg)

let shard_report ~broken_2pc =
  let module S = Nemesis.Shard_campaign in
  let base =
    {
      (S.default_config ~shards:2 ()) with
      S.plans = 3;
      clients = 8;
      ops_per_client = 2;
    }
  in
  let cfg =
    if broken_2pc then { base with S.tx_pct = 40; keys = 32; broken_2pc }
    else { base with S.storage = true }
  in
  stable S.pp_report_stable (S.run cfg)

let detect_report ~plans mutant =
  let module D = Nemesis.Detect_campaign in
  stable D.pp_report_stable
    (D.run { (D.default_config ~n:4 ()) with D.plans; mutant })

let obj_report () =
  let module O = Nemesis.Obj_campaign in
  stable O.pp_report_stable
    (O.run
       {
         (O.default_config ~n:5 ()) with
         O.objects = [ "queue"; "kv" ];
         backends = [ Rsm.Backend.ben_or; Rsm.Backend.omega ];
         plans = 2;
         storage = true;
       })

(* Nested consensus pins: every input pattern of 1 to 5 processors,
   seeds 1 to 50, decided by one backend.  The count of [true]
   decisions, the summed charges, and a hash of every
   (pattern, seed, decision, charge) in order. *)
let backend_pin backend =
  let (module B : Rsm.Backend.S) = backend in
  let trues = ref 0 and charges = ref 0 and lines = ref [] in
  for n = 1 to 5 do
    for bits = 0 to (1 lsl n) - 1 do
      let inputs = Array.init n (fun i -> bits land (1 lsl i) <> 0) in
      let pattern =
        String.init n (fun i -> if inputs.(i) then '1' else '0')
      in
      for seed = 1 to 50 do
        let d, charge = B.decide ~seed:(Int64.of_int seed) ~inputs in
        if d then incr trues;
        charges := !charges + charge;
        lines :=
          Printf.sprintf "%s:%d:%b:%d" pattern seed d charge :: !lines
      done
    done
  done;
  Printf.sprintf "true=%d charge=%d all=%s" !trues !charges
    (short (String.concat ";" (List.rev !lines)))

let seeds = [ 1; 2; 3; 4; 5 ]

let pins =
  List.concat
    [
      List.concat_map
        (fun b ->
          List.map
            (fun s ->
              ( Printf.sprintf "rsm/%s/%d" (Rsm.Backend.name b) s,
                fun () -> rsm_pin b s ))
            seeds)
        Rsm.Backend.all;
      List.map (fun s -> (Printf.sprintf "shard/%d" s, fun () -> shard_pin s)) seeds;
      List.map (fun s -> (Printf.sprintf "obj/queue/%d" s, fun () -> obj_pin s)) seeds;
      List.map (fun s -> (Printf.sprintf "nemesis/%d" s, fun () -> nemesis_pin s)) seeds;
      List.map (fun s -> (Printf.sprintf "detect/%d" s, fun () -> detect_pin s)) seeds;
      List.map
        (fun b -> ("backend/" ^ Rsm.Backend.name b, fun () -> backend_pin b))
        Rsm.Backend.all;
      [
        ("nemesis/trace/7", fun () -> trace_md5 (nemesis_run ~quiet:false 7).trace);
        ( "detect/trace/7",
          fun () ->
            trace_md5 (Dsim.Engine.trace (detect_run ~quiet:false 7).Detect.Runner.engine) );
      ];
      List.concat_map
        (fun (suffix, store) ->
          List.map
            (fun b ->
              ( Printf.sprintf "wal/rsm/%s%s" (Rsm.Backend.name b) suffix,
                fun () -> wal_rsm_pin b store ))
            Rsm.Backend.all
          @ (("wal/shard" ^ suffix, fun () -> wal_shard_pin store)
            :: List.map
                 (fun (name, o) ->
                   ( Printf.sprintf "wal/obj/%s%s" name suffix,
                     fun () -> wal_obj_pin o store ))
                 Obj.Registry.all))
        wal_stores;
      [
        ("campaign/nemesis", nemesis_report);
        ("campaign/shard", fun () -> shard_report ~broken_2pc:false);
        ("campaign/shard-broken-2pc", fun () -> shard_report ~broken_2pc:true);
        ("campaign/detect", fun () -> detect_report ~plans:6 Detect.Oracle.Honest);
        ( "campaign/detect-rotating",
          fun () -> detect_report ~plans:4 Detect.Oracle.Rotating );
        ("campaign/obj", obj_report);
      ];
    ]

(* Recorded once from the polled engine; never regenerate to make a
   change pass. *)
let expected =
  [
    ("rsm/ben-or/1", "vt=2340 msgs=120 inst=57 acked=24 dig=d468ddf17f85");
    ("rsm/ben-or/2", "vt=2220 msgs=120 inst=53 acked=24 dig=971bcfb2ebb1");
    ("rsm/ben-or/3", "vt=1660 msgs=120 inst=45 acked=24 dig=7210aee6b888");
    ("rsm/ben-or/4", "vt=2070 msgs=120 inst=51 acked=24 dig=24f6c612688c");
    ("rsm/ben-or/5", "vt=1780 msgs=120 inst=47 acked=24 dig=ff97e9add3b1");
    ("rsm/phase-king/1", "vt=4020 msgs=120 inst=67 acked=24 dig=d468ddf17f85");
    ("rsm/phase-king/2", "vt=4020 msgs=120 inst=67 acked=24 dig=971bcfb2ebb1");
    ("rsm/phase-king/3", "vt=4020 msgs=120 inst=67 acked=24 dig=7210aee6b888");
    ("rsm/phase-king/4", "vt=4020 msgs=120 inst=67 acked=24 dig=24f6c612688c");
    ("rsm/phase-king/5", "vt=4020 msgs=120 inst=67 acked=24 dig=ff97e9add3b1");
    ("rsm/raft/1", "vt=2120 msgs=120 inst=67 acked=24 dig=d468ddf17f85");
    ("rsm/raft/2", "vt=2120 msgs=120 inst=67 acked=24 dig=971bcfb2ebb1");
    ("rsm/raft/3", "vt=2080 msgs=120 inst=67 acked=24 dig=7210aee6b888");
    ("rsm/raft/4", "vt=2110 msgs=120 inst=67 acked=24 dig=24f6c612688c");
    ("rsm/raft/5", "vt=2100 msgs=120 inst=67 acked=24 dig=ff97e9add3b1");
    ("rsm/omega/1", "vt=370 msgs=120 inst=12 acked=24 dig=d468ddf17f85");
    ("rsm/omega/2", "vt=370 msgs=120 inst=12 acked=24 dig=971bcfb2ebb1");
    ("rsm/omega/3", "vt=370 msgs=120 inst=12 acked=24 dig=7210aee6b888");
    ("rsm/omega/4", "vt=390 msgs=120 inst=12 acked=24 dig=24f6c612688c");
    ("rsm/omega/5", "vt=370 msgs=120 inst=12 acked=24 dig=ff97e9add3b1");
    ("shard/1", "vt=2850 msgs=246 inst=96 dig=556f30e5ee79");
    ("shard/2", "vt=2766 msgs=219 inst=84 dig=d3ac4e6f4238");
    ("shard/3", "vt=2943 msgs=255 inst=93 dig=e5089fd9a40a");
    ("shard/4", "vt=2912 msgs=237 inst=92 dig=3c6985c6e6fe");
    ("shard/5", "vt=2769 msgs=264 inst=95 dig=24701cbed1a7");
    ("obj/queue/1", "vt=490 msgs=120 inst=16 acked=24 dig=f570bf90b074");
    ("obj/queue/2", "vt=490 msgs=120 inst=16 acked=24 dig=3ded1e530d11");
    ("obj/queue/3", "vt=490 msgs=120 inst=16 acked=24 dig=3cb3bfb5aeaf");
    ("obj/queue/4", "vt=500 msgs=120 inst=16 acked=24 dig=6bb51eebf1ac");
    ("obj/queue/5", "vt=490 msgs=120 inst=16 acked=24 dig=c1c0ff2a7b9a");
    ("nemesis/1", "vt=2480 msgs=160 inst=62 acked=24 dig=d468ddf17f85");
    ("nemesis/2", "vt=2520 msgs=180 inst=47 acked=24 dig=971bcfb2ebb1");
    ("nemesis/3", "vt=1660 msgs=140 inst=45 acked=24 dig=7210aee6b888");
    ("nemesis/4", "vt=1440 msgs=130 inst=39 acked=24 dig=1ab656273c1f");
    ("nemesis/5", "vt=1780 msgs=130 inst=47 acked=24 dig=f70bc5ce0c2c");
    ("detect/1", "vt=640 msgs=142 hb=108 dec=11111 at=22,104,28,28,24");
    ("detect/2", "vt=640 msgs=64 hb=40 dec=11111 at=27,35,31,36,29");
    ("detect/3", "vt=640 msgs=64 hb=40 dec=11111 at=22,27,25,29,29");
    ("detect/4", "vt=640 msgs=64 hb=40 dec=11111 at=28,37,33,36,36");
    ("detect/5", "vt=640 msgs=64 hb=40 dec=11111 at=20,21,27,21,25");
    ("nemesis/trace/7", "563a4b42df8a119da786248b98450957");
    ("detect/trace/7", "ca28ece53e0576213f14113e2dd6180c");
    ("wal/rsm/ben-or", "bytes=2910 rec=f5900755ec2f snap=325e11bda912");
    ("wal/rsm/phase-king", "bytes=2910 rec=f5900755ec2f snap=325e11bda912");
    ("wal/rsm/raft", "bytes=2910 rec=f5900755ec2f snap=325e11bda912");
    ("wal/rsm/omega", "bytes=2910 rec=f5900755ec2f snap=325e11bda912");
    ("wal/shard", "bytes=8346 rec=ae0eaa494487 snap=ab43b1939af3");
    ("wal/obj/queue", "bytes=2180 rec=f5900755ec2f snap=b68fe4a233f9");
    ("wal/obj/stack", "bytes=2180 rec=f5900755ec2f snap=05f6f80d78ee");
    ("wal/obj/counter", "bytes=1945 rec=f5900755ec2f snap=d1aa81f9fda2");
    ("wal/obj/set", "bytes=2395 rec=f5900755ec2f snap=c256721098fe");
    ("wal/obj/index", "bytes=2620 rec=f5900755ec2f snap=eeb330e4711e");
    ("wal/obj/kv", "bytes=2960 rec=f5900755ec2f snap=b25d20d4df64");
    ("wal/rsm/ben-or/full-log", "bytes=2910 rec=6e57ff6e7176 snap=f5900755ec2f");
    ("wal/rsm/phase-king/full-log", "bytes=2910 rec=99854a8171ad snap=f5900755ec2f");
    ("wal/rsm/raft/full-log", "bytes=2910 rec=99854a8171ad snap=f5900755ec2f");
    ("wal/rsm/omega/full-log", "bytes=2910 rec=99854a8171ad snap=f5900755ec2f");
    ("wal/shard/full-log", "bytes=8346 rec=9657b9f7d2c0 snap=e9470fa15e4b");
    ("wal/obj/queue/full-log", "bytes=2180 rec=3e21da52c57e snap=f5900755ec2f");
    ("wal/obj/stack/full-log", "bytes=2180 rec=b2851af39ef3 snap=f5900755ec2f");
    ("wal/obj/counter/full-log", "bytes=1945 rec=4746a1020418 snap=f5900755ec2f");
    ("wal/obj/set/full-log", "bytes=2395 rec=82eb7357541d snap=f5900755ec2f");
    ("wal/obj/index/full-log", "bytes=2620 rec=edc75153df23 snap=f5900755ec2f");
    ("wal/obj/kv/full-log", "bytes=2960 rec=7bb8bbe47917 snap=f5900755ec2f");
    ("backend/ben-or", "true=1492 charge=146429 all=c96cc5756718");
    ("backend/phase-king", "true=2400 charge=162000 all=89effd12d660");
    ("backend/raft", "true=1550 charge=107514 all=8a8e7defe7d1");
    ("backend/omega", "true=1550 charge=94328 all=d8c2dfe18876");
    ( "campaign/nemesis",
      "nemesis campaign: 16 runs, 128 faults injected\n\
      \  coverage: crash=36, restart=12, partition=4, heal=4, drop=12, dup=8, \
       delay=4, torn=8, sync-loss=12, io-err=8, stall=20\n\
      \  safety failures: 4, incomplete runs: 5, durability failures: 4\n\
      \  SAFETY ben-or seed=2 (13 actions, 9/9 acked)\n\
      \  SAFETY phase-king seed=2 (13 actions, 9/9 acked)\n\
      \  SAFETY raft seed=2 (13 actions, 9/9 acked)\n\
      \  SAFETY omega seed=2 (13 actions, 9/9 acked)\n\
      \  DURABILITY ben-or seed=2 (13 actions, 9/9 acked)\n\
      \  DURABILITY phase-king seed=2 (13 actions, 9/9 acked)\n\
      \  DURABILITY raft seed=2 (13 actions, 9/9 acked)\n\
      \  DURABILITY omega seed=2 (13 actions, 9/9 acked)\n" );
    ( "campaign/shard",
      "shard campaign: 3 runs, 37 faults injected\n\
      \  coverage: crash=4, restart=4, partition=5, heal=3, drop=3, dup=3, \
       delay=4, torn=1, sync-loss=2, io-err=6, stall=2\n\
      \  safety: 0, atomicity: 0, incomplete: 0, durability: 0\n" );
    ( "campaign/shard-broken-2pc",
      "shard campaign: 3 runs, 41 faults injected\n\
      \  coverage: crash=8, restart=8, partition=7, heal=5, drop=6, dup=3, \
       delay=4, torn=0, sync-loss=0, io-err=0, stall=0\n\
      \  safety: 0, atomicity: 2, incomplete: 0, durability: 0\n\
      \  ATOMICITY ben-or seed=1 (16/16 done, 5/0 tx ok/ab)\n\
      \  ATOMICITY ben-or seed=3 (16/16 done, 7/0 tx ok/ab)\n" );
    ( "campaign/detect",
      "detect campaign: 6 runs, 42 faults injected\n\
      \  coverage: crash=7, restart=3, partition=7, heal=6, drop=8, dup=7, \
       delay=4, torn=0, sync-loss=0, io-err=0, stall=0\n\
      \  stable plans: 6/6, decided runs: 6, livelocked stable runs: 0\n\
      \  agreement failures: 0, validity failures: 0\n\
      \  suspicions: 11 (false: 8, rate 0.727), heartbeats: 1845\n\
      \  mean decision latency: 24.7, mean time-to-omega-stability: 107.2\n" );
    ( "campaign/detect-rotating",
      "detect campaign: 4 runs, 32 faults injected\n\
      \  coverage: crash=5, restart=2, partition=6, heal=5, drop=8, dup=2, \
       delay=4, torn=0, sync-loss=0, io-err=0, stall=0\n\
      \  stable plans: 4/4, decided runs: 0, livelocked stable runs: 4\n\
      \  agreement failures: 0, validity failures: 0\n\
      \  suspicions: 46 (false: 35, rate 0.761), heartbeats: 7494\n\
      \  mean decision latency: -, mean time-to-omega-stability: -\n\
      \  LIVELOCK: params 0 seed 1 (stable plan, undecided)\n\
      \  LIVELOCK: params 0 seed 2 (stable plan, undecided)\n\
      \  LIVELOCK: params 0 seed 3 (stable plan, undecided)\n\
      \  LIVELOCK: params 0 seed 4 (stable plan, undecided)\n" );
    ( "campaign/obj",
      "object campaign: 8 runs, 0 failures (0 linearizability)\n\
      \  kv       4 runs, 0 failures\n\
      \  queue    4 runs, 0 failures\n" );
  ]

let check_group prefix () =
  List.iter
    (fun (name, run) ->
      if String.starts_with ~prefix name then
        match List.assoc_opt name expected with
        | None -> Alcotest.failf "no pin recorded for %s" name
        | Some want -> Alcotest.(check string) name want (run ()))
    pins

let suite =
  List.map
    (fun g -> Alcotest.test_case (g ^ " pins unchanged") `Quick (check_group (g ^ "/")))
    [ "rsm"; "shard"; "obj"; "nemesis"; "detect"; "campaign"; "wal"; "backend" ]
