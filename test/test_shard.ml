(* Tests for the sharded multi-group RSM: command codec, router,
   per-shard state machine (2PC participant rules), the cross-shard
   atomicity checker, and end-to-end runs — including the 2PC edge
   cases (coordinator crash between prepare and commit, participant
   crash after prepare, aborts under shard-local partition) and the
   deliberately broken commit-without-quorum mutant. *)

module Cmd = Shard.Cmd
module Router = Shard.Router
module Machine = Shard.Machine
module XChecker = Shard.Checker
module Runner = Shard.Runner

let check = Alcotest.check

(* --- helpers ----------------------------------------------------------- *)

(* Keys grouped by owning shard, so tests can build transactions with a
   known span. *)
let keys_of_shard router ~shard ~count =
  let rec go i acc =
    if List.length acc >= count then List.rev acc
    else
      let k = Printf.sprintf "k%d" i in
      if Router.shard_of_key router k = shard then go (i + 1) (k :: acc)
      else go (i + 1) acc
  in
  go 0 []

let run_cfg ?(shards = 3) ?(replicas = 3) ?(batch = 8) ?(seed = 1)
    ?(arrival = Runner.Closed_loop { think = 5 }) ?store ?inject
    ?(broken_2pc = false) ?(coordinator_crash = fun _ -> Runner.No_crash)
    ?(ack_timeout = 2_000) ops =
  Runner.run
    {
      (Runner.default_config ~shards ~ops) with
      replicas;
      batch;
      seed = Int64.of_int seed;
      arrival;
      store;
      inject;
      broken_2pc;
      coordinator_crash;
      ack_timeout;
    }

let show_rsm vs = Fmt.str "%a" (Fmt.list Rsm.Checker.pp_violation) vs
let show_x vs = Fmt.str "%a" (Fmt.list XChecker.pp_violation) vs

let no_violations ?(durability = true) (r : Runner.report) =
  Array.iter
    (fun (sr : Runner.shard_report) ->
      let tag p = Printf.sprintf "shard %d %s" sr.Runner.sr_shard p in
      check Alcotest.string (tag "order") "" (show_rsm sr.Runner.sr_violations);
      check Alcotest.string (tag "completeness") ""
        (show_rsm sr.Runner.sr_completeness);
      if durability then
        check Alcotest.string (tag "durability") ""
          (show_rsm sr.Runner.sr_durability);
      check Alcotest.bool (tag "digests") true sr.Runner.sr_digests_agree)
    r.Runner.shard_reports;
  check Alcotest.string "atomicity" "" (show_x r.Runner.atomicity);
  check Alcotest.string "tx completeness" "" (show_x r.Runner.tx_completeness)

let drained (r : Runner.report) =
  check Alcotest.string "drained" "quiescent"
    (match r.Runner.engine_outcome with
    | Dsim.Engine.Quiescent -> "quiescent"
    | Deadlock _ -> "deadlock"
    | Time_limit -> "time-limit"
    | Event_limit -> "event-limit")

(* A mixed workload over a fixed router: singles plus cross-shard
   transactions, with adjustable contention. *)
let mixed_ops ~router ~clients ~per_client ~tx_every ~hot_keys =
  let s0 = keys_of_shard router ~shard:0 ~count:hot_keys in
  let s1 = keys_of_shard router ~shard:1 ~count:hot_keys in
  Array.init clients (fun c ->
      List.init per_client (fun k ->
          if tx_every > 0 && k mod tx_every = 0 then
            let a = List.nth s0 ((c + k) mod hot_keys) in
            let b = List.nth s1 ((c * 3 + k) mod hot_keys) in
            Runner.Tx [ Cmd.W_add (a, 1); Cmd.W_add (b, 1) ]
          else
            Runner.Single
              (Obj.Kv.Set (Printf.sprintf "c%d-%d" c k, string_of_int k))))

(* --- cmd codec --------------------------------------------------------- *)

let codec_roundtrip () =
  let samples =
    [
      Cmd.Kv (Obj.Kv.Set ("a b", "x\ny"));
      Cmd.Kv (Obj.Kv.Get "k");
      Cmd.Kv (Obj.Kv.Cas { key = "k"; expect = Some "1 2"; update = "3" });
      Cmd.Decide { txid = 42; commit = true };
      Cmd.Outcome { txid = 7; commit = false };
      Cmd.Prepare
        {
          Cmd.txid = 1048577;
          participants = [ 0; 2 ];
          ops =
            [
              (0, [ Cmd.W_set ("key with space", "v\"quoted\""); Cmd.W_add ("x", -3) ]);
              (2, [ Cmd.W_add ("y", 10) ]);
            ];
        };
    ]
  in
  List.iter
    (fun c ->
      let s = Cmd.to_string c in
      check Alcotest.bool
        (Printf.sprintf "single line: %s" s)
        false
        (String.contains s '\n');
      check Alcotest.string s s (Cmd.to_string (Cmd.of_string s)))
    samples

let cid_tags () =
  let txid = Cmd.base ~client:5 ~seq:9 in
  check Alcotest.bool "kinds distinct" true
    (List.length
       (List.sort_uniq compare
          [
            Cmd.kv_cid ~client:5 ~seq:9;
            Cmd.prepare_cid ~txid;
            Cmd.decide_cid ~txid ~commit:true;
            Cmd.decide_cid ~txid ~commit:false;
            Cmd.outcome_cid ~txid ~commit:true;
            Cmd.outcome_cid ~txid ~commit:false;
          ])
    = 6);
  (match Cmd.kind_of_cid (Cmd.prepare_cid ~txid) with
  | Cmd.K_prepare t -> check Alcotest.int "prepare txid" txid t
  | _ -> Alcotest.fail "wrong kind");
  match Cmd.kind_of_cid (Cmd.outcome_cid ~txid ~commit:true) with
  | Cmd.K_outcome (t, true) -> check Alcotest.int "outcome txid" txid t
  | _ -> Alcotest.fail "wrong kind"

(* --- router ------------------------------------------------------------ *)

let router_slices () =
  let r = Router.create ~shards:4 in
  let wops =
    List.init 20 (fun i -> Cmd.W_add (Printf.sprintf "key%d" i, i))
  in
  let tx = Router.make_tx r ~txid:1 wops in
  check Alcotest.bool "participants sorted" true
    (List.sort compare tx.Cmd.participants = tx.Cmd.participants);
  check Alcotest.(list int) "participants = slice keys"
    (List.map fst tx.Cmd.ops) tx.Cmd.participants;
  check Alcotest.int "every op in some slice" 20
    (List.fold_left (fun a (_, l) -> a + List.length l) 0 tx.Cmd.ops);
  List.iter
    (fun (s, wl) ->
      List.iter
        (fun w ->
          check Alcotest.int "op routed to its owner" s
            (Router.shard_of_key r (Cmd.wop_key w)))
        wl)
    tx.Cmd.ops;
  check Alcotest.int "coordinator is first participant"
    (List.hd tx.Cmd.participants)
    (Router.coordinator tx)

(* --- machine: participant-side 2PC rules ------------------------------- *)

let tx2 ~txid keys =
  {
    Cmd.txid;
    participants = [ 0 ];
    ops = [ (0, List.map (fun k -> Cmd.W_add (k, 1)) keys) ];
  }

let machine_prepare_commit () =
  let m = Machine.create ~shard:0 in
  (match Machine.apply m (Cmd.Prepare (tx2 ~txid:8 [ "a"; "b" ])) with
  | Machine.O_vote v -> check Alcotest.bool "vote yes" true v
  | _ -> Alcotest.fail "expected vote");
  check Alcotest.int "locks held" 2 (Machine.locked_keys m);
  check (Alcotest.option Alcotest.string) "buffered, not applied" None
    (Machine.lookup m "a");
  (match Machine.apply m (Cmd.Decide { txid = 8; commit = true }) with
  | Machine.O_decided c -> check Alcotest.bool "committed" true c
  | _ -> Alcotest.fail "expected decision");
  check (Alcotest.option Alcotest.string) "applied" (Some "1")
    (Machine.lookup m "a");
  check Alcotest.int "locks released" 0 (Machine.locked_keys m)

let machine_conflict_votes_no () =
  let m = Machine.create ~shard:0 in
  ignore (Machine.apply m (Cmd.Prepare (tx2 ~txid:8 [ "a" ])) : Machine.output);
  (match Machine.apply m (Cmd.Prepare (tx2 ~txid:9 [ "a"; "c" ])) with
  | Machine.O_vote v -> check Alcotest.bool "conflicting prepare votes no" false v
  | _ -> Alcotest.fail "expected vote");
  (* the loser must not have taken any lock *)
  (match Machine.apply m (Cmd.Outcome { txid = 9; commit = false }) with
  | Machine.O_outcome c -> check Alcotest.bool "aborted" false c
  | _ -> Alcotest.fail "expected outcome");
  ignore (Machine.apply m (Cmd.Decide { txid = 8; commit = true }) : Machine.output);
  check (Alcotest.option Alcotest.string) "winner applied" (Some "1")
    (Machine.lookup m "a");
  check (Alcotest.option Alcotest.string) "loser never applied" None
    (Machine.lookup m "c")

let machine_fences_late_prepare () =
  let m = Machine.create ~shard:0 in
  (* decision records arriving before the prepare fence the txid *)
  ignore (Machine.apply m (Cmd.Outcome { txid = 4; commit = false }) : Machine.output);
  (match Machine.apply m (Cmd.Prepare (tx2 ~txid:4 [ "a" ])) with
  | Machine.O_vote v -> check Alcotest.bool "fenced prepare votes no" false v
  | _ -> Alcotest.fail "expected vote");
  check (Alcotest.option Alcotest.string) "nothing applied" None
    (Machine.lookup m "a");
  check Alcotest.int "no locks" 0 (Machine.locked_keys m)

let machine_first_decision_wins () =
  let m = Machine.create ~shard:0 in
  ignore (Machine.apply m (Cmd.Prepare (tx2 ~txid:8 [ "a" ])) : Machine.output);
  ignore (Machine.apply m (Cmd.Decide { txid = 8; commit = false }) : Machine.output);
  (match Machine.apply m (Cmd.Decide { txid = 8; commit = true }) with
  | Machine.O_decided c ->
      check Alcotest.bool "late conflicting decide reports canonical" false c
  | _ -> Alcotest.fail "expected decision");
  check (Alcotest.option Alcotest.string) "abort stuck" None (Machine.lookup m "a")

let machine_snapshot_roundtrip () =
  let m = Machine.create ~shard:2 in
  ignore (Machine.apply m (Cmd.Kv (Obj.Kv.Set ("k \"1\"", "v\n2"))) : Machine.output);
  ignore
    (Machine.apply m
       (Cmd.Prepare
          { Cmd.txid = 3; participants = [ 2 ]; ops = [ (2, [ Cmd.W_add ("z", 5) ]) ] })
      : Machine.output);
  ignore (Machine.apply m (Cmd.Outcome { txid = 9; commit = true }) : Machine.output);
  let s = Machine.snapshot m in
  check Alcotest.bool "single line" false (String.contains s '\n');
  let m' = Machine.restore s in
  check Alcotest.string "digest survives roundtrip" (Machine.digest m)
    (Machine.digest m');
  (* the restored machine still holds tx 3's lock *)
  match Machine.apply m' (Cmd.Prepare (tx2 ~txid:11 [ "z" ])) with
  | Machine.O_vote v -> check Alcotest.bool "restored lock conflicts" false v
  | _ -> Alcotest.fail "expected vote"

(* --- cross-shard checker ----------------------------------------------- *)

let xchecker_catches_partial_commit () =
  let c = XChecker.create () in
  XChecker.record_tx c ~txid:1 ~participants:[ 0; 1 ];
  XChecker.record_vote c ~txid:1 ~shard:0 ~vote:true;
  XChecker.record_vote c ~txid:1 ~shard:1 ~vote:false;
  XChecker.record_outcome c ~txid:1 ~shard:0 ~committed:true;
  XChecker.record_outcome c ~txid:1 ~shard:1 ~committed:false;
  let vs = XChecker.check c in
  check Alcotest.bool "commit without quorum flagged" true
    (List.exists (fun v -> v.XChecker.property = "commit-quorum") vs);
  check Alcotest.bool "outcome disagreement flagged" true
    (List.exists (fun v -> v.XChecker.property = "outcome-agreement") vs)

let xchecker_accepts_clean_commit () =
  let c = XChecker.create () in
  XChecker.record_tx c ~txid:1 ~participants:[ 0; 1 ];
  XChecker.record_vote c ~txid:1 ~shard:0 ~vote:true;
  XChecker.record_vote c ~txid:1 ~shard:1 ~vote:true;
  XChecker.record_outcome c ~txid:1 ~shard:0 ~committed:true;
  XChecker.record_outcome c ~txid:1 ~shard:1 ~committed:true;
  check Alcotest.string "clean commit passes" "" (show_x (XChecker.check c));
  check Alcotest.string "complete" "" (show_x (XChecker.check_complete c));
  check Alcotest.int "committed" 1 (XChecker.committed c)

let xchecker_completeness () =
  let c = XChecker.create () in
  XChecker.record_tx c ~txid:1 ~participants:[ 0; 1 ];
  XChecker.record_outcome c ~txid:1 ~shard:0 ~committed:false;
  check Alcotest.bool "missing outcome flagged" true
    (XChecker.check_complete c <> [])

(* --- end-to-end runs --------------------------------------------------- *)

let basic_run () =
  let router = Router.create ~shards:3 in
  let ops = mixed_ops ~router ~clients:12 ~per_client:6 ~tx_every:3 ~hot_keys:4 in
  let r = run_cfg ~shards:3 ops in
  drained r;
  no_violations r;
  check Alcotest.int "all singles acked" r.Runner.singles_submitted
    r.Runner.singles_acked;
  check Alcotest.int "every tx finished" r.Runner.txs_started
    (r.Runner.txs_committed + r.Runner.txs_aborted);
  check Alcotest.bool "some transactions committed" true
    (r.Runner.txs_committed > 0)

let deterministic_replay () =
  let mk () =
    let router = Router.create ~shards:3 in
    let ops = mixed_ops ~router ~clients:8 ~per_client:5 ~tx_every:2 ~hot_keys:3 in
    run_cfg ~shards:3 ~seed:42 ops
  in
  let a = mk () and b = mk () in
  check Alcotest.int "virtual time equal" a.Runner.virtual_time
    b.Runner.virtual_time;
  check Alcotest.int "committed equal" a.Runner.txs_committed
    b.Runner.txs_committed;
  check Alcotest.int "aborted equal" a.Runner.txs_aborted b.Runner.txs_aborted;
  Array.iteri
    (fun i (sa : Runner.shard_report) ->
      check
        Alcotest.(array string)
        (Printf.sprintf "shard %d digests equal" i)
        sa.Runner.sr_digests
        b.Runner.shard_reports.(i).Runner.sr_digests)
    a.Runner.shard_reports

let open_loop_run () =
  let router = Router.create ~shards:2 in
  let ops = mixed_ops ~router ~clients:10 ~per_client:4 ~tx_every:4 ~hot_keys:3 in
  let r = run_cfg ~shards:2 ~arrival:(Runner.Open_loop { mean_gap = 40. }) ops in
  drained r;
  no_violations r;
  check Alcotest.int "all ops done" r.Runner.singles_submitted
    r.Runner.singles_acked

(* Coordinator crash between prepare and commit: the driver abandons the
   transaction after submitting prepares; the recovery daemon must
   finish it from the logs. *)
let coordinator_crash_after_prepare () =
  let router = Router.create ~shards:3 in
  let ops = mixed_ops ~router ~clients:6 ~per_client:4 ~tx_every:2 ~hot_keys:3 in
  let r =
    run_cfg ~shards:3
      ~coordinator_crash:(fun txid ->
        if txid mod 2 = 0 then Runner.After_prepare else Runner.No_crash)
      ops
  in
  drained r;
  no_violations r;
  check Alcotest.int "every tx finished despite dead coordinators"
    r.Runner.txs_started
    (r.Runner.txs_committed + r.Runner.txs_aborted)

(* Coordinator crash between decide and outcome propagation. *)
let coordinator_crash_after_decide () =
  let router = Router.create ~shards:3 in
  let ops = mixed_ops ~router ~clients:6 ~per_client:4 ~tx_every:2 ~hot_keys:3 in
  let r =
    run_cfg ~shards:3
      ~coordinator_crash:(fun txid ->
        if txid mod 3 = 0 then Runner.After_decide else Runner.No_crash)
      ops
  in
  drained r;
  no_violations r;
  check Alcotest.int "every tx finished" r.Runner.txs_started
    (r.Runner.txs_committed + r.Runner.txs_aborted)

(* A participant replica crashes after prepares started flowing and
   recovers from its WAL; atomicity and per-shard order must hold. *)
let participant_crash_after_prepare () =
  let router = Router.create ~shards:2 in
  let ops = mixed_ops ~router ~clients:8 ~per_client:4 ~tx_every:2 ~hot_keys:3 in
  let inject (f : Runner.faults) =
    Dsim.Engine.schedule f.Runner.engine ~delay:150 (fun () ->
        f.Runner.crash ~shard:1 ~replica:0);
    Dsim.Engine.schedule f.Runner.engine ~delay:900 (fun () ->
        f.Runner.restart ~shard:1 ~replica:0)
  in
  let r =
    run_cfg ~shards:2 ~store:Rsm.Runner.default_store_config ~inject ops
  in
  drained r;
  no_violations r;
  check Alcotest.bool "replica crashed and recovered" true
    (r.Runner.shard_reports.(1).Runner.sr_crashed = [ 0 ]
    && r.Runner.shard_reports.(1).Runner.sr_restarted = [ 0 ])

(* Shard-local partition: minority-cut one shard for a window.  Safety
   must hold throughout; the contention plus delay produces aborts. *)
let aborts_under_partition () =
  let router = Router.create ~shards:2 in
  let ops = mixed_ops ~router ~clients:10 ~per_client:5 ~tx_every:1 ~hot_keys:2 in
  let inject (f : Runner.faults) =
    Dsim.Engine.schedule f.Runner.engine ~delay:100 (fun () ->
        f.Runner.partition ~shard:1 [ [ 0 ]; [ 1; 2 ] ]);
    Dsim.Engine.schedule f.Runner.engine ~delay:1_200 (fun () ->
        f.Runner.heal ~shard:1)
  in
  let r = run_cfg ~shards:2 ~inject ops in
  drained r;
  no_violations r;
  check Alcotest.int "every tx finished" r.Runner.txs_started
    (r.Runner.txs_committed + r.Runner.txs_aborted);
  check Alcotest.bool "contention produced aborts" true (r.Runner.txs_aborted > 0)

(* The deliberately broken coordinator commits on the first yes vote;
   under contention some participant has voted no, and the cross-shard
   checker must catch the partial commit. *)
let broken_2pc_caught () =
  let router = Router.create ~shards:2 in
  let ops = mixed_ops ~router ~clients:12 ~per_client:4 ~tx_every:1 ~hot_keys:2 in
  let r = run_cfg ~shards:2 ~broken_2pc:true ops in
  check Alcotest.bool "mutant detected" true (r.Runner.atomicity <> []);
  check Alcotest.bool "commit-quorum property fired" true
    (List.exists
       (fun v -> v.XChecker.property = "commit-quorum")
       r.Runner.atomicity)

(* Storage faults + crash/restart: durable acks must survive. *)
let durable_under_storage_faults () =
  let router = Router.create ~shards:2 in
  let ops = mixed_ops ~router ~clients:6 ~per_client:4 ~tx_every:2 ~hot_keys:3 in
  let policy =
    {
      Store.Policy.none with
      torn = [ Store.Policy.rule ~from_:300 ~until_:340 () ];
      io_error = [ Store.Policy.rule ~from_:500 ~until_:560 () ];
    }
  in
  let inject (f : Runner.faults) =
    Dsim.Engine.schedule f.Runner.engine ~delay:400 (fun () ->
        f.Runner.crash ~shard:0 ~replica:1);
    Dsim.Engine.schedule f.Runner.engine ~delay:1_000 (fun () ->
        f.Runner.restart ~shard:0 ~replica:1)
  in
  let r =
    run_cfg ~shards:2
      ~store:{ Rsm.Runner.default_store_config with policy }
      ~inject ops
  in
  drained r;
  no_violations r

(* --- the group's ack gate and per-replica state ----------------------- *)

let single_ops () =
  Array.init 8 (fun c ->
      List.init 3 (fun i ->
          Runner.Single
            (Obj.Kv.Set (Printf.sprintf "k%d" ((c * 3) + i), string_of_int i))))

(* Shard 0's full outage under a long fsync stall, mirroring
   test_store's pair for the single-group runner: with honest acks the
   durability audit stays clean; acking before fsync loses acked
   commands and the audit must say so. *)
let shard_outage ~seed ~ack_before_fsync =
  let stall =
    {
      Store.Policy.none with
      Store.Policy.stall = [ (Store.Policy.rule ~from_:0 ~until_:400 (), 500) ];
    }
  in
  let inject (f : Runner.faults) =
    List.iter
      (fun replica ->
        Dsim.Engine.schedule f.Runner.engine ~delay:120 (fun () ->
            f.Runner.crash ~shard:0 ~replica);
        Dsim.Engine.schedule f.Runner.engine ~delay:300 (fun () ->
            f.Runner.restart ~shard:0 ~replica))
      [ 0; 1; 2 ]
  in
  let r =
    run_cfg ~shards:2 ~seed ~inject
      ~store:{ Rsm.Runner.policy = stall; snapshot_every = 0; ack_before_fsync }
      (single_ops ())
  in
  check Alcotest.int (Printf.sprintf "seed %d: all acked" seed) 24
    r.Runner.singles_acked;
  r.Runner.shard_reports.(0).Runner.sr_durability

let outage_honest_store () =
  for seed = 1 to 3 do
    check Alcotest.string
      (Printf.sprintf "seed %d: durability audit clean" seed)
      ""
      (show_rsm (shard_outage ~seed ~ack_before_fsync:false))
  done

let outage_ack_before_fsync_caught () =
  for seed = 1 to 3 do
    let vs = shard_outage ~seed ~ack_before_fsync:true in
    check Alcotest.bool
      (Printf.sprintf "seed %d: audit catches the broken store" seed)
      true (vs <> []);
    List.iter
      (fun (v : Rsm.Checker.violation) ->
        check Alcotest.string "violations are durability violations"
          "durability" v.Rsm.Checker.property)
      vs
  done

(* Each replica owns its machine: one crashed before the run applied
   nothing and must still hold a fresh state, while its live peers'
   states moved on. *)
let replicas_never_share_state () =
  let fresh = Machine.digest (Machine.create ~shard:0) in
  for seed = 1 to 3 do
    let inject (f : Runner.faults) =
      Dsim.Engine.schedule f.Runner.engine ~delay:0 (fun () ->
          f.Runner.crash ~shard:0 ~replica:2)
    in
    let r = run_cfg ~shards:2 ~seed ~inject (single_ops ()) in
    let d = r.Runner.shard_reports.(0).Runner.sr_digests in
    let msg = Printf.sprintf "seed %d: " seed in
    check Alcotest.string (msg ^ "crashed replica is fresh") fresh d.(2);
    check Alcotest.bool (msg ^ "live replicas moved on") true
      (d.(0) <> fresh && d.(1) <> fresh)
  done

(* Transaction and command ids pack the per-client sequence number into
   20 bits; a longer op list is refused before anything runs (the small
   event budget keeps a missing check from running a million ops). *)
let rejects_cid_overflow () =
  let op = Runner.Single (Obj.Kv.Get "k") in
  let ops = [| [ op ]; List.init (1 lsl 20) (fun _ -> op) |] in
  Alcotest.check_raises "2^20 ops from one client"
    (Invalid_argument "Shard.Runner.run: a client has 2^20 or more ops")
    (fun () ->
      ignore
        (Runner.run
           { (Runner.default_config ~shards:2 ~ops) with max_events = 1_000 }
          : Runner.report))

let suite =
  [
    Alcotest.test_case "cmd codec roundtrip" `Quick codec_roundtrip;
    Alcotest.test_case "cid tagging" `Quick cid_tags;
    Alcotest.test_case "router slices by owner" `Quick router_slices;
    Alcotest.test_case "machine: prepare/commit" `Quick machine_prepare_commit;
    Alcotest.test_case "machine: conflict votes no" `Quick
      machine_conflict_votes_no;
    Alcotest.test_case "machine: fences late prepare" `Quick
      machine_fences_late_prepare;
    Alcotest.test_case "machine: first decision wins" `Quick
      machine_first_decision_wins;
    Alcotest.test_case "machine: snapshot roundtrip" `Quick
      machine_snapshot_roundtrip;
    Alcotest.test_case "xchecker: partial commit caught" `Quick
      xchecker_catches_partial_commit;
    Alcotest.test_case "xchecker: clean commit passes" `Quick
      xchecker_accepts_clean_commit;
    Alcotest.test_case "xchecker: completeness" `Quick xchecker_completeness;
    Alcotest.test_case "run: mixed workload, no violations" `Quick basic_run;
    Alcotest.test_case "run: deterministic replay" `Quick deterministic_replay;
    Alcotest.test_case "run: open-loop arrivals" `Quick open_loop_run;
    Alcotest.test_case "2pc: coordinator crash after prepare" `Quick
      coordinator_crash_after_prepare;
    Alcotest.test_case "2pc: coordinator crash after decide" `Quick
      coordinator_crash_after_decide;
    Alcotest.test_case "2pc: participant crash after prepare" `Quick
      participant_crash_after_prepare;
    Alcotest.test_case "2pc: aborts under shard-local partition" `Quick
      aborts_under_partition;
    Alcotest.test_case "2pc: broken commit-without-quorum caught" `Quick
      broken_2pc_caught;
    Alcotest.test_case "2pc: durable under storage faults" `Quick
      durable_under_storage_faults;
    Alcotest.test_case "group: full outage, honest store" `Quick
      outage_honest_store;
    Alcotest.test_case "group: ack-before-fsync caught by audit" `Quick
      outage_ack_before_fsync_caught;
    Alcotest.test_case "group: replicas never share state" `Quick
      replicas_never_share_state;
    Alcotest.test_case "rejects command-id overflow" `Quick rejects_cid_overflow;
  ]
