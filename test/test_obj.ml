(* Tests for lib/obj: the sequential specifications and their codecs,
   the generic Wing–Gong linearizability checker, the replicated
   universal construction (honest and with the dropped-entry mutant),
   the shared-memory lock-free log (honest and broken), the nemesis
   campaign sweep, and the model-checked queue. *)

module Backend = Rsm.Backend
module Q = Obj.Queue
module Wgq = Obj.Wg.Make (Obj.Queue)
module Smq = Obj.Smem.Make (Obj.Queue)
module E = Mcheck.Explorer

let check = Alcotest.check

(* --- sequential specifications ----------------------------------------- *)

let queue_spec () =
  let st, r = Q.apply Q.init (Q.Enq "a") in
  check Alcotest.string "enq acks" "ok" (Q.resp_to_string r);
  let st, _ = Q.apply st (Q.Enq "b") in
  let st, r = Q.apply st Q.Deq in
  check Alcotest.string "fifo head" "deq \"a\"" (Q.resp_to_string r);
  let st, r = Q.apply st Q.Deq in
  check Alcotest.string "fifo second" "deq \"b\"" (Q.resp_to_string r);
  let _, r = Q.apply st Q.Deq in
  check Alcotest.string "empty deq" "deq -" (Q.resp_to_string r)

let stack_spec () =
  let module S = Obj.Stack in
  let st, _ = S.apply S.init (S.Push "a") in
  let st, _ = S.apply st (S.Push "b") in
  let st, r = S.apply st S.Pop in
  check Alcotest.string "lifo top" "pop \"b\"" (S.resp_to_string r);
  let st, r = S.apply st S.Pop in
  check Alcotest.string "lifo bottom" "pop \"a\"" (S.resp_to_string r);
  let _, r = S.apply st S.Pop in
  check Alcotest.string "empty pop" "pop -" (S.resp_to_string r)

let counter_spec () =
  let module C = Obj.Counter in
  let st, r = C.apply C.init (C.Add 3) in
  check Alcotest.string "add returns the new total" "= 3" (C.resp_to_string r);
  let st, r = C.apply st (C.Add 4) in
  check Alcotest.string "accumulates" "= 7" (C.resp_to_string r);
  let _, r = C.apply st C.Read in
  check Alcotest.string "read is stable" "= 7" (C.resp_to_string r)

let set_spec () =
  let module S = Obj.Sset in
  let st, r = S.apply S.init (S.Add "x") in
  check Alcotest.string "first add was absent" "true" (S.resp_to_string r);
  let st, r = S.apply st (S.Add "x") in
  check Alcotest.string "second add was present" "false" (S.resp_to_string r);
  let st, r = S.apply st (S.Mem "x") in
  check Alcotest.string "member" "true" (S.resp_to_string r);
  let st, r = S.apply st (S.Remove "x") in
  check Alcotest.string "remove was present" "true" (S.resp_to_string r);
  let _, r = S.apply st (S.Mem "x") in
  check Alcotest.string "gone" "false" (S.resp_to_string r)

let index_spec () =
  let module I = Obj.Index in
  let st, _ = I.apply I.init (I.Put ("k1", "red")) in
  let st, _ = I.apply st (I.Put ("k2", "red")) in
  let st, _ = I.apply st (I.Put ("k3", "blue")) in
  let _, r = I.apply st (I.Find "red") in
  check Alcotest.string "inverted index finds both keys" "keys \"k1\" \"k2\""
    (I.resp_to_string r);
  (* overwriting k1 must also migrate it in the inverted index *)
  let st, _ = I.apply st (I.Put ("k1", "blue")) in
  let _, r = I.apply st (I.Find "red") in
  check Alcotest.string "overwrite migrates the index" "keys \"k2\""
    (I.resp_to_string r);
  let _, r = I.apply st (I.Find "blue") in
  check Alcotest.string "new value gains the key" "keys \"k1\" \"k3\""
    (I.resp_to_string r);
  let st, r = I.apply st (I.Del "k2") in
  check Alcotest.string "delete reports presence" "del true"
    (I.resp_to_string r);
  let _, r = I.apply st (I.Find "red") in
  check Alcotest.string "delete empties the posting" "keys"
    (I.resp_to_string r)

let kv_spec () =
  let module K = Obj.Kv in
  let st, _ = K.apply K.init (K.Set ("k", "v1")) in
  let _, r = K.apply st (K.Get "k") in
  check Alcotest.string "get after set" "got \"v1\"" (K.resp_to_string r);
  let st, r =
    K.apply st (K.Cas { key = "k"; expect = Some "v1"; update = "v2" })
  in
  check Alcotest.string "cas hit" "cas true" (K.resp_to_string r);
  let st, r =
    K.apply st (K.Cas { key = "k"; expect = Some "v1"; update = "v3" })
  in
  check Alcotest.string "cas miss" "cas false" (K.resp_to_string r);
  let _, r = K.apply st (K.Get "k") in
  check Alcotest.string "miss left the value alone" "got \"v2\""
    (K.resp_to_string r)

(* Every registry object: op and state codecs must round-trip over the
   object's own generated mix, and the digest must survive a snapshot
   round-trip (canonicity across re-decode). *)
let codec_roundtrip (module O : Obj.Spec.S) () =
  let rng = Dsim.Rng.create 3L in
  let st = ref O.init in
  let step ~key ~tag =
    let op = O.gen_op ~rng ~key ~tag in
    let enc = O.op_to_string op in
    check Alcotest.string "op codec round-trips" enc
      (O.op_to_string (O.op_of_string enc));
    check Alcotest.bool "single-line op encoding" false
      (String.contains enc '\n');
    let st', resp = O.apply !st op in
    st := st';
    check Alcotest.bool "single-line response" false
      (String.contains (O.resp_to_string resp) '\n');
    let snap = O.state_to_string !st in
    check Alcotest.bool "single-line snapshot" false (String.contains snap '\n');
    check Alcotest.string "snapshot preserves the digest" (O.digest !st)
      (O.digest (O.state_of_string snap))
  in
  for k = 0 to 199 do
    step ~key:(Printf.sprintf "k%d" (k mod 5)) ~tag:(Printf.sprintf "t%d" k)
  done;
  (* keys and values that only quoting keeps intact: the separators of
     every format, quotes, a backslash, a newline, non-ASCII bytes *)
  let awkward =
    [| "a b"; "a;b"; "a,b"; "a=b"; "a\"b"; "a\\b"; "a\nb"; "\xe2\x88\x85\xff" |]
  in
  let n = Array.length awkward in
  for k = 0 to 199 do
    step ~key:awkward.(k mod n) ~tag:(awkward.(k / n mod n) ^ string_of_int k)
  done

let queue_digest_canonical () =
  (* Two representations of the abstract queue ["b"]: one reached via an
     internal front/back rotation, one enqueued directly. *)
  let st1 =
    let st, _ = Q.apply Q.init (Q.Enq "a") in
    let st, _ = Q.apply st (Q.Enq "b") in
    fst (Q.apply st Q.Deq)
  in
  let st2 = fst (Q.apply Q.init (Q.Enq "b")) in
  check Alcotest.string "digest ignores representation" (Q.digest st2)
    (Q.digest st1)

(* --- the Wing–Gong checker --------------------------------------------- *)

let ev ?resp ?returned ~cid ~invoked op =
  { Wgq.cid; op; resp; invoked; returned }

let verdict_linearizable = function
  | Wgq.Linearizable _ -> true
  | Wgq.Illegal _ | Wgq.Inconclusive -> false

let wg_sequential_legal () =
  let h =
    [
      ev ~cid:0 ~invoked:0 ~returned:1 ~resp:"ok" (Q.Enq "a");
      ev ~cid:1 ~invoked:2 ~returned:3 ~resp:"deq \"a\"" Q.Deq;
    ]
  in
  check Alcotest.bool "legal sequential history" true
    (verdict_linearizable (Wgq.check h).Wgq.verdict)

let wg_concurrent_reorder () =
  (* Two overlapping enqueues; the dequeue sees "b" first, so only the
     order b-then-a linearizes — the checker must find it. *)
  let h =
    [
      ev ~cid:0 ~invoked:0 ~returned:10 ~resp:"ok" (Q.Enq "a");
      ev ~cid:1 ~invoked:0 ~returned:10 ~resp:"ok" (Q.Enq "b");
      ev ~cid:2 ~invoked:20 ~returned:30 ~resp:"deq \"b\"" Q.Deq;
    ]
  in
  check Alcotest.bool "concurrent enqueues reorder" true
    (verdict_linearizable (Wgq.check h).Wgq.verdict)

let wg_real_time_respected () =
  (* The same dequeue response is illegal once the enqueues are
     real-time ordered: a returned before b was invoked. *)
  let h =
    [
      ev ~cid:0 ~invoked:0 ~returned:5 ~resp:"ok" (Q.Enq "a");
      ev ~cid:1 ~invoked:10 ~returned:15 ~resp:"ok" (Q.Enq "b");
      ev ~cid:2 ~invoked:20 ~returned:30 ~resp:"deq \"b\"" Q.Deq;
    ]
  in
  check Alcotest.bool "real-time order binds" false
    (verdict_linearizable (Wgq.check h).Wgq.verdict)

let wg_duplicate_deq_illegal () =
  let h =
    [
      ev ~cid:0 ~invoked:0 ~returned:1 ~resp:"ok" (Q.Enq "a");
      ev ~cid:1 ~invoked:2 ~returned:3 ~resp:"deq \"a\"" Q.Deq;
      ev ~cid:2 ~invoked:4 ~returned:5 ~resp:"deq \"a\"" Q.Deq;
    ]
  in
  (match (Wgq.check h).Wgq.verdict with
  | Wgq.Illegal stuck ->
      check Alcotest.bool "the duplicate dequeue is stuck" true
        (List.mem 2 stuck)
  | Wgq.Linearizable _ | Wgq.Inconclusive ->
      Alcotest.fail "lost update not convicted");
  check Alcotest.int "violations reported" 1 (List.length (Wgq.violations h))

let wg_pending_may_be_dropped () =
  (* cid 0's enqueue never acked: the history linearizes by omitting it
     entirely, so the empty dequeue is legal. *)
  let h =
    [
      ev ~cid:0 ~invoked:0 ~resp:"ok" (Q.Enq "a");
      ev ~cid:1 ~invoked:10 ~returned:20 ~resp:"deq -" Q.Deq;
    ]
  in
  check Alcotest.bool "pending op omitted" true
    (verdict_linearizable (Wgq.check h).Wgq.verdict)

let wg_pending_may_have_taken_effect () =
  (* ...and the same pending enqueue may equally have landed before the
     dequeue that observed its value. *)
  let h =
    [
      ev ~cid:0 ~invoked:0 (Q.Enq "a");
      ev ~cid:1 ~invoked:10 ~returned:20 ~resp:"deq \"a\"" Q.Deq;
    ]
  in
  check Alcotest.bool "pending op included" true
    (verdict_linearizable (Wgq.check h).Wgq.verdict)

let wg_budget_inconclusive () =
  let h =
    List.init 8 (fun i ->
        ev ~cid:i ~invoked:0 ~returned:100 ~resp:"ok"
          (Q.Enq (Printf.sprintf "v%d" i)))
  in
  match (Wgq.check ~max_states:3 h).Wgq.verdict with
  | Wgq.Inconclusive -> ()
  | Wgq.Linearizable _ | Wgq.Illegal _ ->
      Alcotest.fail "tiny budget must be inconclusive"

(* --- the replicated universal construction ----------------------------- *)

let run_obj ?drop_nth ?(seed = 1) ?(crashes = 0) ?restart_after ~backend name =
  Workload.Obj_load.run ~n:5 ~clients:3 ~commands:6 ~batch:8 ~crashes
    ?restart_after ~seed ?drop_nth ~backend (Obj.Registry.find name)

let replicated_clean name backend () =
  let s = run_obj ~backend name in
  check Alcotest.int "all commands acked" 18 s.Workload.Obj_load.acked;
  check (Alcotest.list Alcotest.string) "linearizable" []
    s.Workload.Obj_load.wg_violations;
  check Alcotest.bool "all gates pass" true s.Workload.Obj_load.ok

let replicated_crash_restart name backend () =
  let s = run_obj ~crashes:2 ~restart_after:400 ~backend name in
  check Alcotest.int "all commands acked" 18 s.Workload.Obj_load.acked;
  check Alcotest.bool "ok under crash/restart" true s.Workload.Obj_load.ok

(* The broken universal construction drops one state-changing log
   entry's effect after acking it.  Every replica drops the same entry,
   so the order and digest gates stay silent — only the Wing–Gong check
   convicts.  The (seed, k) pairs are pinned per object: which dropped
   mutation is observable depends on the object's semantics (a FIFO
   queue exposes a lost early enqueue at the first dequeue; a LIFO
   stack hides a lost push until the stack drains past it). *)
let mutant_combos =
  [
    ("queue", 1, 1);
    ("stack", 1, 8);
    ("counter", 1, 1);
    ("set", 1, 1);
    ("index", 1, 0);
    ("kv", 3, 1);
  ]

let replicated_mutant_convicted (name, seed, k) () =
  let s = run_obj ~seed ~drop_nth:k ~backend:Backend.ben_or name in
  check Alcotest.int "order gate silent" 0 s.Workload.Obj_load.order_violations;
  check Alcotest.bool "digest gate silent" true
    s.Workload.Obj_load.digests_agree;
  check Alcotest.bool "wing-gong convicts" true
    (s.Workload.Obj_load.wg_violations <> []);
  check Alcotest.bool "run fails overall" false s.Workload.Obj_load.ok

(* --- the nemesis campaign sweep ---------------------------------------- *)

let campaign_config =
  {
    (Nemesis.Obj_campaign.default_config ~n:5 ()) with
    Nemesis.Obj_campaign.backends = [ Backend.ben_or ];
    objects = [ "queue"; "counter" ];
    plans = 2;
  }

let campaign_failures r =
  List.length
    (Nemesis.Sweep.failing
       (fun o -> o.Nemesis.Obj_campaign.summary.Workload.Obj_load.ok)
       r)

let campaign_all_gates_pass () =
  let r = Nemesis.Obj_campaign.run ~jobs:1 campaign_config in
  check Alcotest.int "runs" 4 (Nemesis.Sweep.runs r);
  check Alcotest.int "no failures" 0 (campaign_failures r)

let campaign_deterministic_across_jobs () =
  let render r =
    Format.asprintf "%a" Nemesis.Obj_campaign.pp_report_stable r
  in
  let r1 = Nemesis.Obj_campaign.run ~jobs:1 campaign_config in
  let r2 = Nemesis.Obj_campaign.run ~jobs:2 campaign_config in
  check Alcotest.string "stable report equal at jobs 1 and 2" (render r1)
    (render r2)

let campaign_storage_faults_pass () =
  let cfg =
    {
      campaign_config with
      Nemesis.Obj_campaign.objects = [ "kv" ];
      storage = true;
    }
  in
  let r = Nemesis.Obj_campaign.run ~jobs:1 cfg in
  check Alcotest.int "durable runs" 2 (Nemesis.Sweep.runs r);
  check Alcotest.int "no failures under storage faults" 0 (campaign_failures r)

(* --- the shared-memory universal construction -------------------------- *)

let smem_ops =
  [| [ Q.Enq "a"; Q.Deq ]; [ Q.Enq "b"; Q.Deq ] |]

let smem_sequential_schedule () =
  (* Proc 0 runs to completion, then proc 1: the chain must carry all
     four operations in that order and the history is trivially legal. *)
  let total = 4 in
  let counts =
    Array.map (fun l -> Smq.budget ~n:2 ~per_proc:(List.length l) ~total)
      smem_ops
  in
  let schedule =
    List.concat
      [
        List.init counts.(0) (fun _ -> 0); List.init counts.(1) (fun _ -> 1);
      ]
  in
  let t = Smq.create ~n:2 () in
  ignore
    (Sharedmem.Explore.run_schedule ~n:2 ~schedule ~body:(fun p ->
         List.iteri
           (fun k o ->
             ignore (Smq.exec t p ~cid:((p.Sharedmem.World.me lsl 20) lor k) o
               : Q.resp))
           smem_ops.(p.Sharedmem.World.me))
      : Dsim.Engine.outcome);
  check Alcotest.int "chain carries every op" 4 (List.length (Smq.chain t));
  check Alcotest.int "one event per op" 4 (List.length (Smq.events t));
  check (Alcotest.list Alcotest.string) "sequential run legal" []
    (Smq.violations t);
  check Alcotest.string "chain replay drains the queue"
    (Q.digest Q.init) (Smq.final_digest t)

let smem_honest_sampled () =
  let r = Smq.check_sampled ~ops:smem_ops ~samples:50 ~seed:9L () in
  check Alcotest.int "all samples ran" 50 r.Smq.samples;
  check (Alcotest.list Alcotest.string) "honest construction linearizable" []
    r.Smq.violations

let smem_broken_sampled () =
  let r =
    Smq.check_sampled ~broken:true ~ops:smem_ops ~samples:50 ~seed:9L ()
  in
  check Alcotest.bool "last-write-wins append convicted" true
    (r.Smq.violations <> [])

(* --- the model-checked queue ------------------------------------------- *)

let mcheck_config = { E.default_config with E.depth = 10 }
let explore_model model = E.explore ~jobs:1 ~config:mcheck_config model

let mcheck_uc_queue_clean () =
  let r = explore_model (Mcheck.Models.uc_queue ()) in
  check Alcotest.bool "explored a real space" true (r.E.r_executions > 100);
  check Alcotest.int "no violating schedule" 0 r.E.r_violating

let mcheck_uc_queue_broken_caught () =
  let r = explore_model (Mcheck.Models.uc_queue ~broken:true ()) in
  check Alcotest.bool "violating schedules found" true (r.E.r_violating > 0);
  check Alcotest.bool "wing-gong violation named" true
    (List.exists
       (fun v ->
         String.length v >= 3 && String.equal (String.sub v 0 3) "wg:")
       r.E.r_violations)

(* --- suite -------------------------------------------------------------- *)

let suite =
  List.concat
    [
      [
        Alcotest.test_case "queue spec" `Quick queue_spec;
        Alcotest.test_case "stack spec" `Quick stack_spec;
        Alcotest.test_case "counter spec" `Quick counter_spec;
        Alcotest.test_case "set spec" `Quick set_spec;
        Alcotest.test_case "index spec" `Quick index_spec;
        Alcotest.test_case "kv spec" `Quick kv_spec;
        Alcotest.test_case "queue digest canonical" `Quick
          queue_digest_canonical;
      ];
      List.map
        (fun (name, m) ->
          Alcotest.test_case
            (Printf.sprintf "codec round-trip (%s)" name)
            `Quick (codec_roundtrip m))
        Obj.Registry.all;
      [
        Alcotest.test_case "wg sequential legal" `Quick wg_sequential_legal;
        Alcotest.test_case "wg concurrent reorder" `Quick wg_concurrent_reorder;
        Alcotest.test_case "wg real-time respected" `Quick
          wg_real_time_respected;
        Alcotest.test_case "wg duplicate deq illegal" `Quick
          wg_duplicate_deq_illegal;
        Alcotest.test_case "wg pending may be dropped" `Quick
          wg_pending_may_be_dropped;
        Alcotest.test_case "wg pending may have taken effect" `Quick
          wg_pending_may_have_taken_effect;
        Alcotest.test_case "wg budget inconclusive" `Quick
          wg_budget_inconclusive;
      ];
      List.concat_map
        (fun b ->
          List.map
            (fun name ->
              Alcotest.test_case
                (Printf.sprintf "replicated %s clean (%s)" name
                   (Backend.name b))
                `Quick (replicated_clean name b))
            Obj.Registry.names)
        Backend.all;
      List.map
        (fun name ->
          Alcotest.test_case
            (Printf.sprintf "replicated %s crash-restart" name)
            `Quick (replicated_crash_restart name Backend.ben_or))
        Obj.Registry.names;
      List.map
        (fun ((name, _, _) as combo) ->
          Alcotest.test_case
            (Printf.sprintf "broken construction convicted (%s)" name)
            `Quick (replicated_mutant_convicted combo))
        mutant_combos;
      [
        Alcotest.test_case "campaign gates pass" `Quick campaign_all_gates_pass;
        Alcotest.test_case "campaign deterministic across jobs" `Quick
          campaign_deterministic_across_jobs;
        Alcotest.test_case "campaign with storage faults" `Quick
          campaign_storage_faults_pass;
        Alcotest.test_case "smem sequential schedule" `Quick
          smem_sequential_schedule;
        Alcotest.test_case "smem honest sampled" `Quick smem_honest_sampled;
        Alcotest.test_case "smem broken sampled" `Quick smem_broken_sampled;
        Alcotest.test_case "mcheck uc-queue clean" `Quick mcheck_uc_queue_clean;
        Alcotest.test_case "mcheck uc-queue broken caught" `Quick
          mcheck_uc_queue_broken_caught;
      ];
    ]
