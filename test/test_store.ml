(* Tests for the simulated stable-storage subsystem: WAL semantics
   (append / fsync / read_back), the four storage fault classes, snapshot
   + compaction, and the durable RSM path built on top — honest
   crash-recovery, full-cluster outages, and the durability audit
   catching an ack-before-fsync store. *)

module Policy = Store.Policy
module Disk = Store.Disk
module Runner = Rsm.Runner
module App = Obj.Kv
module Checker = Rsm.Checker

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let disk ?policy ~seed () =
  let eng = Dsim.Engine.create ~seed () in
  let d = Disk.create ~engine:eng ~pid:0 ?policy () in
  (eng, d)

let append_ok d s =
  match Disk.append d s with
  | Ok seq -> seq
  | Error `Io_error -> Alcotest.fail (Printf.sprintf "append %S refused" s)

let fsync_ok ?(k = fun () -> ()) d =
  match Disk.fsync d ~k with
  | Ok () -> ()
  | Error `Io_error -> Alcotest.fail "fsync refused"

let datas d = List.map (fun (r : Disk.record) -> r.Disk.data) (Disk.read_back d)

(* --- WAL basics --------------------------------------------------------- *)

(* Fsynced records survive a crash; the unsynced tail does not. *)
let lose_unsynced_tail () =
  let _eng, d = disk ~seed:1L () in
  ignore (append_ok d "a" : int);
  ignore (append_ok d "b" : int);
  fsync_ok d;
  ignore (append_ok d "c" : int);
  check Alcotest.int "one unsynced record" 1 (Disk.unsynced_count d);
  Disk.crash d;
  check Alcotest.(list string) "durable prefix survives" [ "a"; "b" ] (datas d);
  let st = Disk.stats d in
  check Alcotest.int "the tail is counted lost" 1 st.Disk.lost_records;
  check Alcotest.int "crash bumps the epoch" 1 (Disk.epoch d)

(* fsync's continuation fires exactly when data is durable (immediately,
   with no stall window). *)
let fsync_continuation_fires () =
  let _eng, d = disk ~seed:2L () in
  ignore (append_ok d "x" : int);
  let fired = ref false in
  fsync_ok ~k:(fun () -> fired := true) d;
  check Alcotest.bool "k fired synchronously" true !fired;
  check Alcotest.(list string) "record durable" [ "x" ] (datas d)

(* --- torn writes -------------------------------------------------------- *)

(* A record appended inside a torn window reads back as corrupt:
   read_back stops just before it, records sees everything. *)
let torn_write_truncates_read_back () =
  let policy = { Policy.none with Policy.torn = [ Policy.rule ~from_:0 ~until_:10 () ] } in
  let eng, d = disk ~policy:(fun () -> policy) ~seed:3L () in
  ignore (append_ok d "early" : int);
  fsync_ok d;
  Dsim.Engine.schedule eng ~delay:50 (fun () ->
      ignore (append_ok d "late" : int);
      fsync_ok d);
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  (* "early" was torn (written at t=0, inside the window); "late" is
     fine but unreachable behind the corruption. *)
  check Alcotest.(list string) "read_back stops at the torn record" [] (datas d);
  check Alcotest.int "records still sees both" 2 (List.length (Disk.records d));
  check Alcotest.int "torn stat" 1 (Disk.stats d).Disk.torn_records

(* --- lying fsyncs ------------------------------------------------------- *)

let sync_loss_drops_batch_silently () =
  let policy =
    { Policy.none with Policy.sync_loss = [ Policy.rule ~from_:0 ~until_:10 () ] }
  in
  let _eng, d = disk ~policy:(fun () -> policy) ~seed:4L () in
  ignore (append_ok d "doomed" : int);
  let fired = ref false in
  fsync_ok ~k:(fun () -> fired := true) d;
  check Alcotest.bool "the disk lies: k fires" true !fired;
  check Alcotest.(list string) "but nothing is durable" [] (datas d);
  check Alcotest.int "sync-lost stat" 1 (Disk.stats d).Disk.sync_lost_records

(* --- io errors ---------------------------------------------------------- *)

let io_error_window_fails_then_recovers () =
  let policy =
    { Policy.none with Policy.io_error = [ Policy.rule ~from_:0 ~until_:10 () ] }
  in
  let eng, d = disk ~policy:(fun () -> policy) ~seed:5L () in
  check Alcotest.bool "window open" true (Disk.io_erroring d);
  (match Disk.append d "no" with
  | Error `Io_error -> ()
  | Ok _ -> Alcotest.fail "append must fail inside the io-error window");
  (match Disk.fsync d ~k:(fun () -> ()) with
  | Error `Io_error -> ()
  | Ok () -> Alcotest.fail "fsync must fail inside the io-error window");
  Dsim.Engine.schedule eng ~delay:20 (fun () ->
      check Alcotest.bool "window closed" false (Disk.io_erroring d);
      ignore (append_ok d "yes" : int);
      fsync_ok d);
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  check Alcotest.(list string) "retry after the window lands" [ "yes" ] (datas d);
  check Alcotest.int "io errors counted" 2 (Disk.stats d).Disk.io_errors

(* --- stalls ------------------------------------------------------------- *)

(* A stalled fsync becomes durable [extra] virtual time later; a crash
   inside the stall loses the batch even though fsync was accepted. *)
let stall_defers_durability () =
  let policy =
    { Policy.none with Policy.stall = [ (Policy.rule ~from_:0 ~until_:10 (), 40) ] }
  in
  let eng, d = disk ~policy:(fun () -> policy) ~seed:6L () in
  ignore (append_ok d "slow" : int);
  let durable_at = ref (-1) in
  fsync_ok ~k:(fun () -> durable_at := Dsim.Engine.now eng) d;
  check Alcotest.(list string) "not durable yet" [] (datas d);
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  check Alcotest.int "durable exactly after the stall" 40 !durable_at;
  check Alcotest.(list string) "record landed" [ "slow" ] (datas d);
  check Alcotest.int "stalled time accounted" 40 (Disk.stats d).Disk.stalled_time

let crash_inside_stall_loses_batch () =
  let policy =
    { Policy.none with Policy.stall = [ (Policy.rule ~from_:0 ~until_:10 (), 40) ] }
  in
  let eng, d = disk ~policy:(fun () -> policy) ~seed:7L () in
  ignore (append_ok d "in-flight" : int);
  let fired = ref false in
  fsync_ok ~k:(fun () -> fired := true) d;
  Dsim.Engine.schedule eng ~delay:10 (fun () -> Disk.crash d);
  ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
  check Alcotest.bool "k never fires" false !fired;
  check Alcotest.(list string) "batch lost" [] (datas d)

(* --- snapshots + compaction --------------------------------------------- *)

let snapshot_then_compact () =
  let _eng, d = disk ~seed:8L () in
  let seqs = List.map (fun s -> append_ok d s) [ "a"; "b"; "c"; "d" ] in
  fsync_ok d;
  let installed = ref false in
  (match Disk.save_snapshot d ~upto:1 "state-after-b" ~k:(fun () -> installed := true) with
  | Ok () -> ()
  | Error `Io_error -> Alcotest.fail "snapshot refused");
  check Alcotest.bool "snapshot installed" true !installed;
  Disk.compact d ~upto_seq:(List.nth seqs 1);
  check Alcotest.(list string) "only the tail remains" [ "c"; "d" ] (datas d);
  (match Disk.latest_snapshot d with
  | Some s ->
      check Alcotest.int "snapshot covers upto" 1 s.Disk.upto;
      check Alcotest.string "payload kept" "state-after-b" s.Disk.payload
  | None -> Alcotest.fail "no snapshot installed");
  let st = Disk.stats d in
  check Alcotest.int "snapshot counted" 1 st.Disk.snapshots_taken;
  check Alcotest.int "compaction counted" 2 st.Disk.compacted_records

(* Snapshots survive crashes (atomic-rename model). *)
let snapshot_survives_crash () =
  let _eng, d = disk ~seed:9L () in
  ignore (append_ok d "a" : int);
  fsync_ok d;
  (match Disk.save_snapshot d ~upto:0 "snap" ~k:(fun () -> ()) with
  | Ok () -> ()
  | Error `Io_error -> Alcotest.fail "snapshot refused");
  Disk.crash d;
  check Alcotest.bool "snapshot still there" true (Disk.latest_snapshot d <> None)

(* --- properties --------------------------------------------------------- *)

(* Under any combination of fault windows and crash times, what read_back
   reproduces is an in-order subsequence of the accepted appends: a lying
   fsync can drop a middle batch while later fsyncs land, and a stalled
   batch can be overtaken by a later un-stalled fsync and then lost to
   the crash — gaps, but never reordering or fabrication. *)
let prop_read_back_is_prefix =
  QCheck.Test.make ~name:"read_back is an append-order subsequence under any policy"
    ~count:100
    QCheck.(
      quad (int_range 1 1_000_000) (int_range 0 3) (int_range 0 3) (int_range 0 3))
    (fun (seed, torn_n, loss_n, io_n) ->
      let rng = Dsim.Rng.create (Int64.of_int seed) in
      let windows n =
        List.init n (fun _ ->
            let from_ = Dsim.Rng.int rng 200 in
            Policy.rule ~from_ ~until_:(from_ + 1 + Dsim.Rng.int rng 60) ())
      in
      let policy =
        {
          Policy.torn = windows torn_n;
          Policy.sync_loss = windows loss_n;
          Policy.io_error = windows io_n;
          Policy.stall =
            List.map (fun r -> (r, 1 + Dsim.Rng.int rng 30)) (windows 1);
        }
      in
      let eng = Dsim.Engine.create ~seed:(Int64.of_int seed) () in
      let d = Disk.create ~engine:eng ~pid:0 ~policy:(fun () -> policy) () in
      let accepted = ref [] in
      for i = 0 to 19 do
        Dsim.Engine.schedule eng ~delay:(i * 13) (fun () ->
            let s = Printf.sprintf "r%d" i in
            match Disk.append d s with
            | Ok _ -> (
                accepted := s :: !accepted;
                match Disk.fsync d ~k:(fun () -> ()) with
                | Ok () | Error `Io_error -> ())
            | Error `Io_error -> ())
      done;
      let crash_at = 30 + Dsim.Rng.int rng 200 in
      Dsim.Engine.schedule eng ~delay:crash_at (fun () -> Disk.crash d);
      ignore (Dsim.Engine.run eng : Dsim.Engine.outcome);
      let got = List.map (fun (r : Disk.record) -> r.Disk.data) (Disk.read_back d) in
      let all = List.rev !accepted in
      let rec is_subseq xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _ :: _, [] -> false
        | x :: xs', y :: ys' ->
            if String.equal x y then is_subseq xs' ys' else is_subseq xs ys'
      in
      is_subseq got all)

(* Snapshot + compaction loses nothing: the snapshot payload plus the
   records that survive compaction reconstruct the full append history. *)
let prop_snapshot_compact_replay =
  QCheck.Test.make ~name:"snapshot + compaction + tail replay = full history"
    ~count:100
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 20))
    (fun (seed, total) ->
      let rng = Dsim.Rng.create (Int64.of_int seed) in
      let _eng, d = disk ~seed:(Int64.of_int seed) () in
      let all = List.init total (fun i -> Printf.sprintf "r%d" i) in
      let seqs = List.map (fun s -> append_ok d s) all in
      fsync_ok d;
      let cut = Dsim.Rng.int rng total in
      (* snapshot covers the first [cut] records *)
      let covered = List.filteri (fun i _ -> i < cut) all in
      (match
         Disk.save_snapshot d ~upto:(cut - 1) (String.concat ";" covered)
           ~k:(fun () -> ())
       with
      | Ok () -> ()
      | Error `Io_error -> QCheck.Test.fail_report "snapshot refused");
      (match List.filteri (fun i _ -> i = cut - 1) seqs with
      | [ seq ] -> Disk.compact d ~upto_seq:seq
      | _ -> () (* cut = 0: nothing to compact *));
      let from_snap =
        match Disk.latest_snapshot d with
        | Some s when s.Disk.payload <> "" ->
            String.split_on_char ';' s.Disk.payload
        | _ -> []
      in
      List.equal String.equal all (from_snap @ datas d))

(* --- the durable RSM ---------------------------------------------------- *)

let set k v = App.Set (k, v)

let ops_of_n ~client n =
  List.init n (fun k -> set (Printf.sprintf "k%d-%d" client k) (string_of_int k))

let run_store ?(backend = Rsm.Backend.ben_or) ?(n = 4) ?(batch = 4) ?(seed = 1)
    ?(crash_schedule = []) ?(restart_schedule = [])
    ?(store = Runner.default_store_config) ops =
  Runner.run Workload.Rsm_load.kv_app
    {
      (Runner.default_config ~n ~ops) with
      backend;
      batch;
      seed = Int64.of_int seed;
      crash_schedule;
      restart_schedule;
      store = Some store;
    }

let no_violations ?(msg = "no violations") (r : _ Runner.report) =
  let show vs = Fmt.str "%a" (Fmt.list Checker.pp_violation) vs in
  check Alcotest.string (msg ^ " (order)") "" (show r.violations);
  check Alcotest.string (msg ^ " (completeness)") "" (show r.completeness);
  check Alcotest.string (msg ^ " (durability)") "" (show r.durability);
  check Alcotest.bool (msg ^ " (digests)") true r.digests_agree

(* Honest disks, no faults: everything acks, the WAL sees traffic, and
   snapshots compact it. *)
let durable_clean_run backend () =
  let ops = Array.init 3 (fun c -> ops_of_n ~client:c 4) in
  let r =
    run_store ~backend
      ~store:{ Runner.default_store_config with Runner.snapshot_every = 2 }
      ops
  in
  check Alcotest.int "all acked" 12 r.acked;
  no_violations r;
  check Alcotest.bool "WAL saw appends" true
    (Array.for_all (fun st -> st.Disk.appends > 0) r.store_stats);
  check Alcotest.bool "fsyncs happened" true
    (Array.for_all (fun st -> st.Disk.fsyncs > 0) r.store_stats);
  check Alcotest.bool "snapshots taken" true
    (Array.exists (fun st -> st.Disk.snapshots_taken > 0) r.store_stats);
  check Alcotest.bool "compaction ran" true
    (Array.exists (fun st -> st.Disk.compacted_records > 0) r.store_stats)

(* Minority crash-restart through real WAL recovery: the restarted
   replicas replay their disks (plus peer catch-up / snapshot install)
   and everything converges. *)
let durable_crash_recovery backend () =
  for seed = 1 to 3 do
    let ops = Array.init 2 (fun c -> ops_of_n ~client:c 4) in
    let r =
      run_store ~backend ~n:4 ~seed
        ~crash_schedule:[ (40, 0) ]
        ~restart_schedule:[ (190, 0) ]
        ~store:{ Runner.default_store_config with Runner.snapshot_every = 2 }
        ops
    in
    check Alcotest.int (Printf.sprintf "seed %d: all acked" seed) 8 r.acked;
    no_violations ~msg:(Printf.sprintf "seed %d" seed) r
  done

(* Full-cluster outage, honest store: acks are gated on durability, so
   whatever was acked is on disk somewhere and recovery reproduces it —
   the durability audit stays clean even with a stall window making the
   gap between delivery and durability wide. *)
let full_outage_honest () =
  let stall_policy =
    { Policy.none with Policy.stall = [ (Policy.rule ~from_:0 ~until_:400 (), 60) ] }
  in
  let ops = Array.init 2 (fun c -> ops_of_n ~client:c 3) in
  let r =
    run_store ~n:3 ~seed:2
      ~crash_schedule:[ (120, 0); (120, 1); (120, 2) ]
      ~restart_schedule:[ (300, 0); (300, 1); (300, 2) ]
      ~store:
        {
          Runner.default_store_config with
          Runner.policy = stall_policy;
          snapshot_every = 0;
        }
      ops
  in
  check Alcotest.int "all acked in the end" 6 r.acked;
  check Alcotest.string "durability audit clean" ""
    (Fmt.str "%a" (Fmt.list Checker.pp_violation) r.durability)

(* The same outage with an ack-before-fsync store: commands acked at
   delivery time are still in the stalled fsync when the whole cluster
   dies, so recovery cannot reproduce them anywhere — the durability
   audit must catch it.  This is the checker's regression test: a broken
   store MUST NOT pass. *)
let full_outage_ack_before_fsync_caught () =
  let stall_policy =
    { Policy.none with Policy.stall = [ (Policy.rule ~from_:0 ~until_:400 (), 500) ] }
  in
  let ops = Array.init 2 (fun c -> ops_of_n ~client:c 3) in
  let r =
    run_store ~n:3 ~seed:2
      ~crash_schedule:[ (120, 0); (120, 1); (120, 2) ]
      ~restart_schedule:[ (300, 0); (300, 1); (300, 2) ]
      ~store:
        {
          Runner.policy = stall_policy;
          snapshot_every = 0;
          ack_before_fsync = true;
        }
      ops
  in
  check Alcotest.bool "durability audit catches the broken store" true
    (r.durability <> []);
  List.iter
    (fun (v : Checker.violation) ->
      check Alcotest.string "violations are durability violations" "durability"
        v.Checker.property)
    r.durability

(* A staggered total outage: the three replicas crash at 40, 120 and 200
   and all restart at 400, so their WALs end at different slots and,
   with nobody alive to remember the decided slots, the disks are the
   only record of them.  The replica whose WAL ends last must re-feed
   the slots the others missed: without that, a laggard re-decides a
   slot it never saw and the states diverge. *)
let total_outage_reseeds_from_wals backend () =
  let ops = Array.init 3 (fun c -> ops_of_n ~client:c 4) in
  let r =
    run_store ~backend ~n:3 ~batch:2
      ~crash_schedule:[ (40, 0); (120, 1); (200, 2) ]
      ~restart_schedule:[ (400, 0); (400, 1); (400, 2) ]
      ~store:{ Runner.default_store_config with Runner.snapshot_every = 0 }
      ops
  in
  let next_slots =
    List.filter_map
      (fun (e : Dsim.Trace.event) ->
        try
          Scanf.sscanf e.detail "replica %d recovered %d commands, next slot %d"
            (fun _ _ next -> Some next)
        with Scanf.Scan_failure _ | End_of_file -> None)
      (Dsim.Trace.with_tag r.trace "rsm")
  in
  check Alcotest.int "three recoveries" 3 (List.length next_slots);
  check Alcotest.bool "the WALs end at different slots" true
    (List.length (List.sort_uniq compare next_slots) > 1);
  check Alcotest.int "all acked" 12 r.acked;
  no_violations r

(* Per-replica WAL recovery state is inspectable through the report's
   disks. *)
let report_exposes_disks () =
  let ops = Array.init 2 (fun c -> ops_of_n ~client:c 2) in
  let r = run_store ~n:3 ops in
  check Alcotest.int "one disk per replica" 3 (Array.length r.disks);
  (* Compaction may legitimately have emptied the WAL — then the data
     lives in the snapshot chain instead. *)
  check Alcotest.bool "every disk holds records or a snapshot" true
    (Array.for_all
       (fun d -> Disk.records d <> [] || Disk.latest_snapshot d <> None)
       r.disks)

(* Keys and values containing [;] survive snapshots, a crash and a
   restart.  The KV snapshot separates its pairs with [;], so a decoder
   that splits on [;] before unquoting cuts such a key inside its
   quotes and raises [Scanf.Scan_failure] at the restart. *)
let kv_semicolons_survive_recovery () =
  let ops =
    [|
      [ set "a;b" "1"; set "k" "2"; App.Get "k" ];
      [ set "c" "x;y" ];
    |]
  in
  let r =
    run_store ~n:3
      ~crash_schedule:[ (200, 1) ]
      ~restart_schedule:[ (400, 1) ]
      ~store:{ Runner.default_store_config with Runner.snapshot_every = 1 }
      ops
  in
  check Alcotest.int "all acked" 4 r.acked;
  no_violations r

(* State transfer: with a snapshot after every non-empty slot, the live
   replicas compact away the slots replica 0 missed while it was down,
   so at its restart it is behind the advertised snapshot floor and must
   adopt a peer's snapshot instead of replaying slots.  The run of
   [oocon store --crashes 1 --restart-after 300 --snapshot-every 1
   --commands 8]. *)
let state_transfer backend () =
  let r, _ =
    Workload.Rsm_load.run_one ~n:5 ~clients:3 ~commands:8 ~batch:4 ~crashes:1
      ~restart_after:300
      ~store:{ Runner.default_store_config with Runner.snapshot_every = 1 }
      ~backend ()
  in
  check Alcotest.bool "replica 0 installed a peer's snapshot" true
    (List.exists
       (fun (e : Dsim.Trace.event) ->
         Astring_like.contains e.detail "replica 0 installed snapshot upto slot")
       (Dsim.Trace.with_tag r.trace "rsm"));
  check Alcotest.int "all submitted" 24 r.submitted;
  check Alcotest.int "all acked" 24 r.acked;
  no_violations r;
  Array.iteri
    (fun pid d ->
      check Alcotest.int
        (Printf.sprintf "replica 0 delivered as many as replica %d" pid)
        d r.delivered.(0))
    r.delivered

(* --- suite -------------------------------------------------------------- *)

let suite =
  List.concat
    [
      [
        Alcotest.test_case "lose unsynced tail on crash" `Quick lose_unsynced_tail;
        Alcotest.test_case "fsync continuation fires" `Quick
          fsync_continuation_fires;
        Alcotest.test_case "torn write truncates read_back" `Quick
          torn_write_truncates_read_back;
        Alcotest.test_case "sync loss drops batch silently" `Quick
          sync_loss_drops_batch_silently;
        Alcotest.test_case "io error window fails then recovers" `Quick
          io_error_window_fails_then_recovers;
        Alcotest.test_case "stall defers durability" `Quick stall_defers_durability;
        Alcotest.test_case "crash inside stall loses batch" `Quick
          crash_inside_stall_loses_batch;
        Alcotest.test_case "snapshot then compact" `Quick snapshot_then_compact;
        Alcotest.test_case "snapshot survives crash" `Quick snapshot_survives_crash;
        qtest prop_read_back_is_prefix;
        qtest prop_snapshot_compact_replay;
      ];
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "durable clean run (%s)" (Rsm.Backend.name b))
            `Quick (durable_clean_run b))
        Rsm.Backend.all;
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "durable crash recovery (%s)" (Rsm.Backend.name b))
            `Quick (durable_crash_recovery b))
        Rsm.Backend.all;
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "state transfer (%s)" (Rsm.Backend.name b))
            `Quick (state_transfer b))
        Rsm.Backend.all;
      List.map
        (fun b ->
          Alcotest.test_case
            (Printf.sprintf "total outage reseeds from WALs (%s)"
               (Rsm.Backend.name b))
            `Quick (total_outage_reseeds_from_wals b))
        Rsm.Backend.all;
      [
        Alcotest.test_case "full outage, honest store" `Quick full_outage_honest;
        Alcotest.test_case "ack-before-fsync caught by audit" `Quick
          full_outage_ack_before_fsync_caught;
        Alcotest.test_case "report exposes disks" `Quick report_exposes_disks;
        Alcotest.test_case "kv keys with ';' survive recovery" `Quick
          kv_semicolons_survive_recovery;
      ];
    ]
