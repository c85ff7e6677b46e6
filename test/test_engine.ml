(* Tests for the discrete-event engine: scheduling, suspension, faults. *)

module Engine = Dsim.Engine

let check = Alcotest.check

let outcome_testable =
  Alcotest.testable
    (fun ppf -> function
      | Engine.Quiescent -> Format.fprintf ppf "Quiescent"
      | Engine.Deadlock pids ->
          Format.fprintf ppf "Deadlock(%s)"
            (String.concat "," (List.map string_of_int pids))
      | Engine.Time_limit -> Format.fprintf ppf "Time_limit"
      | Engine.Event_limit -> Format.fprintf ppf "Event_limit")
    ( = )

let schedule_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:5 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := "c" :: !log);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.string) "time order, FIFO ties" [ "a"; "b"; "c" ]
    (List.rev !log);
  check Alcotest.int "clock at last event" 10 (Engine.now e)

let negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1) (fun () -> ()))

let await_immediate () =
  let e = Engine.create () in
  let q = Engine.queue e in
  let steps = ref [] in
  let _p =
    Engine.spawn e (fun _ctx ->
        (* Condition already true: must not suspend at all. *)
        let v = Engine.await q (fun () -> Some 42) in
        steps := v :: !steps)
  in
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.int) "ran" [ 42 ] !steps

let await_wakes_on_change () =
  let e = Engine.create () in
  let q = Engine.queue e in
  let flag = ref false in
  let woke_at = ref (-1) in
  let _p =
    Engine.spawn e (fun _ctx ->
        Engine.await_cond q (fun () -> !flag);
        woke_at := Engine.now e)
  in
  Engine.schedule e ~delay:30 (fun () ->
      flag := true;
      Engine.signal q);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.int "woke when flag set" 30 !woke_at

let sleep_accumulates () =
  let e = Engine.create () in
  let t1 = ref 0 and t2 = ref 0 in
  let _p =
    Engine.spawn e (fun ctx ->
        Engine.sleep ctx 7;
        t1 := Engine.now e;
        Engine.sleep ctx 5;
        t2 := Engine.now e)
  in
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.int "first sleep" 7 !t1;
  check Alcotest.int "second sleep" 12 !t2

let deadlock_detection () =
  let e = Engine.create () in
  let p = Engine.spawn e (fun _ -> Engine.await_cond (Engine.queue e) (fun () -> false)) in
  match Engine.run e with
  | Engine.Deadlock pids -> check (Alcotest.list Alcotest.int) "blocked pid" [ p ] pids
  | other ->
      Alcotest.failf "expected deadlock, got %a" (fun ppf o ->
          Fmt.pf ppf "%s"
            (match o with
            | Engine.Quiescent -> "quiescent"
            | Engine.Time_limit -> "time"
            | Engine.Event_limit -> "events"
            | Engine.Deadlock _ -> "deadlock")) other

let kill_blocked_process_runs_finalizers () =
  let e = Engine.create () in
  let cleaned = ref false in
  let p =
    Engine.spawn e (fun _ ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () -> Engine.await_cond (Engine.queue e) (fun () -> false)))
  in
  Engine.schedule e ~delay:5 (fun () -> Engine.kill e p);
  check outcome_testable "quiescent after kill" Engine.Quiescent (Engine.run e);
  check Alcotest.bool "finalizer ran" true !cleaned;
  check Alcotest.bool "not alive" false (Engine.alive e p)

let kill_sleeping_process () =
  let e = Engine.create () in
  let resumed = ref false in
  let p =
    Engine.spawn e (fun ctx ->
        Engine.sleep ctx 100;
        resumed := true)
  in
  Engine.schedule e ~delay:10 (fun () -> Engine.kill e p);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.bool "never resumed" false !resumed

let kill_is_idempotent () =
  let e = Engine.create () in
  let p = Engine.spawn e (fun _ -> Engine.await_cond (Engine.queue e) (fun () -> false)) in
  Engine.schedule e ~delay:1 (fun () ->
      Engine.kill e p;
      Engine.kill e p);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e)

let sleep_zero_interleaves () =
  let e = Engine.create () in
  let log = ref [] in
  let _a =
    Engine.spawn e (fun ctx ->
        log := "a1" :: !log;
        Engine.sleep ctx 0;
        log := "a2" :: !log)
  in
  let _b =
    Engine.spawn e (fun ctx ->
        log := "b1" :: !log;
        Engine.sleep ctx 0;
        log := "b2" :: !log)
  in
  ignore (Engine.run e : Engine.outcome);
  check (Alcotest.list Alcotest.string) "spawn order then sleep 0 order"
    [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let process_exception_is_recorded () =
  let e = Engine.create () in
  let p = Engine.spawn e (fun _ -> failwith "boom") in
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.bool "not alive" false (Engine.alive e p);
  match Engine.process_failed e p with
  | Some (Failure msg) -> check Alcotest.string "message" "boom" msg
  | Some _ | None -> Alcotest.fail "expected recorded failure"

let time_limit_then_resume () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~delay:100 (fun () -> fired := true);
  check outcome_testable "time limit" Engine.Time_limit (Engine.run ~until:50 e);
  check Alcotest.bool "not yet" false !fired;
  check Alcotest.int "clock clamped" 50 (Engine.now e);
  check outcome_testable "finishes later" Engine.Quiescent (Engine.run e);
  check Alcotest.bool "fired eventually" true !fired

let event_limit () =
  let e = Engine.create () in
  for i = 1 to 10 do
    Engine.schedule e ~delay:i (fun () -> ())
  done;
  check outcome_testable "event limit" Engine.Event_limit
    (Engine.run ~max_events:3 e)

let event_limit_inside_tick_resumes () =
  (* A run stopped by its event budget in the middle of a tick leaves the
     rest of the tick queued: the next run picks it up in order, with
     what the stopped part scheduled at delay 0 after it. *)
  let e = Engine.create () in
  let ran = ref [] in
  let ev name f = Engine.schedule e ~delay:25 (fun () -> ran := name :: !ran; f ()) in
  ev "a" ignore;
  ev "b" (fun () -> Engine.schedule e ~delay:0 (fun () -> ran := "d" :: !ran));
  ev "c" ignore;
  check outcome_testable "stopped inside the tick" Engine.Event_limit
    (Engine.run ~max_events:2 e);
  check (Alcotest.list Alcotest.string) "a and b ran" [ "a"; "b" ] (List.rev !ran);
  check Alcotest.int "clock at the tick" 25 (Engine.now e);
  check outcome_testable "resumed to the end" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.string) "c, then d" [ "a"; "b"; "c"; "d" ]
    (List.rev !ran);
  check Alcotest.int "clock unchanged" 25 (Engine.now e)

let determinism_same_seed () =
  let run_once () =
    let e = Engine.create ~seed:77L () in
    let log = ref [] in
    for i = 0 to 3 do
      ignore
        (Engine.spawn e (fun ctx ->
             Engine.sleep ctx (Dsim.Rng.int_in ctx.Engine.rng 1 50);
             log := (i, Engine.now e) :: !log)
        : Engine.pid)
    done;
    ignore (Engine.run e : Engine.outcome);
    List.rev !log
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "identical schedules" (run_once ()) (run_once ())

let names_and_ids () =
  (* A name renders when it is read, not when the process is spawned or
     runs, on a traced engine too. *)
  let e = Engine.create () in
  let rendered = ref 0 in
  let p =
    Engine.spawn e
      ~name:(fun () ->
        incr rendered;
        "alice")
      (fun _ -> ())
  in
  let q = Engine.spawn e (fun _ -> ()) in
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.int "spawn and run render no name" 0 !rendered;
  check Alcotest.string "explicit name" "alice" (Engine.name e p);
  check Alcotest.int "rendered on read" 1 !rendered;
  check Alcotest.string "default name" (Printf.sprintf "p%d" q) (Engine.name e q);
  check Alcotest.bool "distinct pids" true (p <> q)

let suspension_outside_process () =
  Alcotest.check_raises "await outside" Engine.Not_in_process (fun () ->
      ignore (Engine.await (Engine.queue (Engine.create ())) (fun () -> None) : unit))

let emit_goes_to_trace () =
  let e = Engine.create () in
  Engine.schedule e ~delay:4 (fun () -> Engine.emit e ~pid:1 ~tag:"custom" "detail");
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.int "one custom event" 1 (Dsim.Trace.count (Engine.trace e) "custom")

let quiet_engine_never_forces_thunks () =
  (* The lazy-emit contract: with tracing off, emitk must not build the
     trace string — the thunk is never called, nothing is retained. *)
  let forced = ref 0 in
  let e = Engine.create ~tracing:false () in
  Engine.schedule e ~delay:1 (fun () ->
      Engine.emitk e ~tag:"quiet" (fun () ->
          incr forced;
          "expensive detail");
      Engine.emit e ~tag:"quiet" "eager detail");
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.int "thunk never forced" 0 !forced;
  check Alcotest.int "trace stays empty" 0 (Dsim.Trace.length (Engine.trace e))

let tracing_toggle () =
  let e = Engine.create () in
  check Alcotest.bool "tracing defaults on" true (Engine.tracing e);
  Engine.set_tracing e false;
  Engine.emit e ~tag:"t" "dropped";
  Engine.set_tracing e true;
  Engine.emit e ~tag:"t" "kept";
  check Alcotest.int "only the traced emit retained" 1
    (Dsim.Trace.length (Engine.trace e))

let run_quiet_restores_tracing () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1 (fun () -> Engine.emit e ~tag:"t" "inside");
  ignore (Engine.run_quiet e : Engine.outcome);
  check Alcotest.bool "tracing restored after run_quiet" true (Engine.tracing e);
  check Alcotest.int "nothing traced during quiet run" 0
    (Dsim.Trace.length (Engine.trace e));
  Engine.emit e ~tag:"t" "after";
  check Alcotest.int "emit works again afterwards" 1
    (Dsim.Trace.length (Engine.trace e))

let quiet_matches_traced_schedule () =
  (* Tracing must affect trace retention only: the same seeded workload
     run quiet and traced takes identical scheduling decisions. *)
  let run_once ~tracing =
    let e = Engine.create ~seed:99L ~tracing () in
    let log = ref [] in
    for p = 0 to 3 do
      ignore
        (Engine.spawn e (fun ctx ->
             for _ = 1 to 5 do
               Engine.sleep ctx (1 + Dsim.Rng.int ctx.Engine.rng 7);
               Engine.emitk e ~tag:"step" (fun () -> "step");
               log := (p, Engine.now e) :: !log
             done)
          : Engine.pid)
    done;
    ignore (Engine.run e : Engine.outcome);
    List.rev !log
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "identical schedules" (run_once ~tracing:true) (run_once ~tracing:false)

let nested_spawn () =
  (* A process spawning another process mid-flight. *)
  let e = Engine.create () in
  let log = ref [] in
  let _parent =
    Engine.spawn e (fun ctx ->
        log := "parent-start" :: !log;
        let _child =
          Engine.spawn e (fun ctx' ->
              Engine.sleep ctx' 5;
              log := "child" :: !log)
        in
        Engine.sleep ctx 10;
        log := "parent-end" :: !log)
  in
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.string) "interleaving"
    [ "parent-start"; "child"; "parent-end" ] (List.rev !log)

let kill_from_sibling_process () =
  (* One process killing another that is blocked; the killer keeps
     running. *)
  let e = Engine.create () in
  let victim =
    Engine.spawn e (fun _ -> Engine.await_cond (Engine.queue e) (fun () -> false))
  in
  let finished = ref false in
  let _killer =
    Engine.spawn e (fun ctx ->
        Engine.sleep ctx 5;
        Engine.kill e victim;
        Engine.sleep ctx 5;
        finished := true)
  in
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.bool "killer finished" true !finished;
  check Alcotest.bool "victim dead" false (Engine.alive e victim)

let await_value_passes_through () =
  let e = Engine.create () in
  let q = Engine.queue e in
  let cell = ref None in
  let got = ref "" in
  let _p =
    Engine.spawn e (fun _ ->
        got := Engine.await q (fun () -> !cell))
  in
  Engine.schedule e ~delay:3 (fun () ->
      cell := Some "payload";
      Engine.signal q);
  ignore (Engine.run e : Engine.outcome);
  check Alcotest.string "payload delivered" "payload" !got

let many_processes_stress () =
  (* 200 processes ping-ponging through a shared counter: exercises the
     marked-wait drain at scale. *)
  let e = Engine.create ~seed:9L () in
  let q = Engine.queue e in
  let turn = ref 0 in
  let n = 200 in
  for i = 0 to n - 1 do
    ignore
      (Engine.spawn e (fun _ ->
           Engine.await_cond q (fun () -> !turn = i);
           incr turn;
           Engine.signal q)
      : Engine.pid)
  done;
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.int "all took their turn" n !turn

let prop_determinism =
  (* For arbitrary seeds, two engines running the same randomized program
     produce identical traces. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"same seed, same trace (any seed)" ~count:100
       QCheck.int64 (fun seed ->
         let run_once () =
           let e = Engine.create ~seed () in
           let log = Buffer.create 64 in
           for i = 0 to 4 do
             ignore
               (Engine.spawn e (fun ctx ->
                    Engine.sleep ctx (Dsim.Rng.int_in ctx.Engine.rng 1 30);
                    Buffer.add_string log (Printf.sprintf "%d@%d;" i (Engine.now e));
                    if Dsim.Rng.bool ctx.Engine.rng then Engine.sleep ctx 0;
                    Buffer.add_string log (Printf.sprintf "%d!%d;" i (Engine.now e)))
               : Engine.pid)
           done;
           ignore (Engine.run e : Engine.outcome);
           Buffer.contents log
         in
         String.equal (run_once ()) (run_once ())))

(* --- flat events, choice points ----------------------------------------- *)

let flat_kind_events () =
  (* register_kind/schedule_kind must interleave with closure-based
     schedule in strict (time, insertion) order, and the packed 30-bit
     argument must round-trip intact — including the extremes. *)
  let e = Engine.create () in
  let log = ref [] in
  let record name arg = log := (name, arg, Engine.now e) :: !log in
  let k1 = Engine.register_kind e (record "k1") in
  let k2 = Engine.register_kind e (record "k2") in
  Engine.schedule_kind e ~owner:(-1) ~delay:5 ~kind:k1 42;
  Engine.schedule e ~delay:5 (fun () -> record "closure" 0);
  Engine.schedule_kind e ~owner:3 ~delay:5 ~kind:k2 7;
  Engine.schedule_kind e ~owner:(-1) ~delay:2 ~kind:k2 0x3FFF_FFFF;
  Engine.schedule_kind e ~owner:(-1) ~delay:2 ~kind:k1 0;
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check
    (Alcotest.list (Alcotest.triple Alcotest.string Alcotest.int Alcotest.int))
    "time order, FIFO ties, args intact"
    [
      ("k2", 0x3FFF_FFFF, 2);
      ("k1", 0, 2);
      ("k1", 42, 5);
      ("closure", 0, 5);
      ("k2", 7, 5);
    ]
    (List.rev !log)

let oracle_bypasses_batching () =
  (* With an oracle installed every event of a tie is a choice: the
     first "sched" choice sees the whole tie set (arity 3, owners
     decoded from the packed representation), and picking the last
     alternative each time reverses the firing order. *)
  let e = Engine.create () in
  let fired = ref [] in
  let k = Engine.register_kind e (fun arg -> fired := arg :: !fired) in
  Engine.schedule_kind e ~owner:4 ~delay:3 ~kind:k 0;
  Engine.schedule_kind e ~owner:9 ~delay:3 ~kind:k 1;
  Engine.schedule e ~delay:3 (fun () -> fired := 2 :: !fired);
  let choices = ref [] in
  Engine.set_oracle e
    (Some
       {
         Engine.choose =
           (fun c ->
             if c.Engine.c_domain = "sched" then
               choices :=
                 (c.Engine.c_arity, Array.to_list c.Engine.c_owners)
                 :: !choices;
             c.Engine.c_arity - 1);
       });
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  let choices = List.rev !choices in
  check
    (Alcotest.list
       (Alcotest.pair Alcotest.int
          (Alcotest.list (Alcotest.option Alcotest.int))))
    "tie set surfaced per-event with owners decoded"
    [ (3, [ Some 4; Some 9; None ]); (2, [ Some 4; Some 9 ]) ]
    choices;
  check (Alcotest.list Alcotest.int) "oracle-chosen order (last first)"
    [ 2; 1; 0 ] (List.rev !fired)

(* --- wait queues ---------------------------------------------------- *)

(* One waiter on a flag whose owner forgets to signal; [extra] events
   keep the run going past the unsignalled change. *)
let forgetful_owner e =
  let q = Engine.queue e in
  let flag = ref false in
  let p = Engine.spawn e (fun _ -> Engine.await_cond q (fun () -> !flag)) in
  Engine.schedule e ~delay:5 (fun () -> flag := true);
  Engine.schedule e ~delay:50 ignore;
  p

let missed_wakeup_at_deadlock () =
  (* No oracle: the run drains to a deadlock, and the deadlock check
     finds the waiter's poll holding. *)
  let e = Engine.create () in
  let p = forgetful_owner e in
  Alcotest.check_raises "convicted at deadlock" (Engine.Missed_wakeup p)
    (fun () -> ignore (Engine.run e : Engine.outcome));
  check Alcotest.int "only once the events ran out" 50 (Engine.now e)

let missed_wakeup_under_oracle () =
  (* With a choice oracle the audit runs after every event, so the same
     owner is convicted right after the unsignalled change. *)
  let e = Engine.create () in
  Engine.set_oracle e (Some { Engine.choose = (fun _ -> 0) });
  let p = forgetful_owner e in
  Alcotest.check_raises "convicted by the audit" (Engine.Missed_wakeup p)
    (fun () -> ignore (Engine.run e : Engine.outcome));
  check Alcotest.int "at the change itself" 5 (Engine.now e)

let signalled_owner_is_clean () =
  (* The same program with the signal in place passes under the audit. *)
  let e = Engine.create () in
  Engine.set_oracle e (Some { Engine.choose = (fun _ -> 0) });
  let q = Engine.queue e in
  let flag = ref false in
  let woke = ref (-1) in
  ignore
    (Engine.spawn e (fun _ ->
         Engine.await_cond q (fun () -> !flag);
         woke := Engine.now e)
      : Engine.pid);
  Engine.schedule e ~delay:5 (fun () ->
      flag := true;
      Engine.signal q);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.int "woke at the change" 5 !woke

let unsignalled_waits_are_not_polled () =
  (* A wait nobody signals is polled once, when it blocks, however many
     events run beside it. *)
  let e = Engine.create () in
  let polls = ref 0 in
  let q = Engine.queue e in
  ignore
    (Engine.spawn e (fun _ ->
         Engine.await_cond q (fun () ->
             incr polls;
             false))
      : Engine.pid);
  for d = 1 to 1_000 do
    Engine.schedule e ~delay:d ignore
  done;
  (match Engine.run e with
  | Engine.Deadlock _ -> ()
  | _ -> Alcotest.fail "expected the waiter to stay blocked");
  (* one poll at block time, one in the deadlock check *)
  check Alcotest.int "polls" 2 !polls

let resume_order_newest_first () =
  (* Four waiters on one queue, one signal.  Newest blocker first:
     dddd; ccc still polls false, so bb; bb's wake releases ccc, and the
     scan restarts from the newest, so ccc comes before the older a —
     the polled engine's restart-from-the-head order. *)
  let e = Engine.create () in
  let q = Engine.queue e in
  let go = ref false and late = ref false in
  let log = ref [] in
  let waiter name cond =
    ignore
      (Engine.spawn e (fun ctx ->
           Engine.sleep ctx (String.length name);
           Engine.await_cond q cond;
           log := name :: !log;
           if name = "bb" then begin
             late := true;
             Engine.signal q
           end)
        : Engine.pid)
  in
  waiter "a" (fun () -> !go);
  waiter "bb" (fun () -> !go);
  waiter "ccc" (fun () -> !late);
  waiter "dddd" (fun () -> !go);
  Engine.schedule e ~delay:10 (fun () ->
      go := true;
      Engine.signal q);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.string) "newest first, rescan after a wake"
    [ "dddd"; "bb"; "ccc"; "a" ] (List.rev !log)

let clock_wakes_at_first_event_of_tick () =
  (* A wait reading [now] names the clock: it resumes right after the
     first event of its deadline tick, not after a later one. *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:10 (fun () -> log := "first" :: !log);
  ignore
    (Engine.spawn e (fun _ ->
         Engine.await_cond (Engine.clock e) (fun () -> Engine.now e >= 10);
         log := "waiter" :: !log)
      : Engine.pid);
  Engine.schedule e ~delay:10 (fun () -> log := "second" :: !log);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.string) "wake point"
    [ "first"; "waiter"; "second" ] (List.rev !log)

let queue_of_another_engine () =
  let e = Engine.create () and other = Engine.create () in
  let p =
    Engine.spawn e (fun _ -> Engine.await_cond (Engine.queue other) (fun () -> false))
  in
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  match Engine.process_failed e p with
  | Some (Invalid_argument _) -> ()
  | _ -> Alcotest.fail "a foreign queue must fail the process"

let killed_while_running_unwinds_at_wait () =
  (* A process killed while it runs (here: by itself) is not left
     blocked when it next waits: it unwinds, finalizers included. *)
  let e = Engine.create () in
  let cleaned = ref false in
  let p = ref (-1) in
  p :=
    Engine.spawn e (fun _ ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Engine.kill e !p;
            Engine.await_cond (Engine.queue e) (fun () -> false)));
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.bool "finalizer ran" true !cleaned

(* --- settle ------------------------------------------------------------ *)

let settle_under_oracle_raises () =
  let e = Engine.create () in
  Engine.set_oracle e (Some { Engine.choose = (fun _ -> 0) });
  Engine.schedule e ~delay:5 ignore;
  Alcotest.check_raises "oracle"
    (Invalid_argument "Engine.settle: a choice oracle is installed") (fun () ->
      Engine.settle e)

let settle_unwinds_parked () =
  (* At t=25 a sleeper (due at 100) is parked and a closure waits at
     130: settle drops both events, unwinds the sleeper with its
     finalizer, and moves the clock to 130 without running the
     closure. *)
  let e = Engine.create () in
  let cleaned = ref (-1) and resumed = ref false and fired = ref false in
  let sleeper =
    Engine.spawn e (fun ctx ->
        Fun.protect
          ~finally:(fun () -> cleaned := Engine.now e)
          (fun () ->
            Engine.sleep ctx 100;
            resumed := true))
  in
  Engine.schedule e ~delay:130 (fun () -> fired := true);
  let settler =
    Engine.spawn e (fun ctx ->
        Engine.sleep ctx 25;
        Engine.settle e;
        check Alcotest.int "clock at the latest dropped event" 130 (Engine.now e))
  in
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check Alcotest.int "finalizer ran at settle time" 130 !cleaned;
  check Alcotest.bool "not resumed" false !resumed;
  check Alcotest.bool "dropped closure never ran" false !fired;
  check Alcotest.bool "sleeper dead" false (Engine.alive e sleeper);
  check Alcotest.bool "settler finished" false (Engine.alive e settler);
  check Alcotest.int "final clock" 130 (Engine.now e)

let settle_drops_rest_of_tick () =
  (* Settling from the middle of a tick drops the tick's later events
     too, and from between runs it drops what an event limit left of a
     tick. *)
  let e = Engine.create () in
  let ran = ref [] in
  let ev name f = Engine.schedule e ~delay:25 (fun () -> ran := name :: !ran; f ()) in
  ev "a" ignore;
  ev "b" (fun () -> Engine.settle e);
  ev "c" ignore;
  Engine.schedule e ~delay:40 (fun () -> ran := "d" :: !ran);
  check outcome_testable "quiescent" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.string) "a and b only" [ "a"; "b" ] (List.rev !ran);
  check Alcotest.int "clock at d's time" 40 (Engine.now e);
  let e = Engine.create () in
  let ran = ref [] in
  List.iter
    (fun name -> Engine.schedule e ~delay:25 (fun () -> ran := name :: !ran))
    [ "a"; "b"; "c" ];
  check outcome_testable "stopped inside the tick" Engine.Event_limit
    (Engine.run ~max_events:2 e);
  Engine.settle e;
  check outcome_testable "nothing left" Engine.Quiescent (Engine.run e);
  check (Alcotest.list Alcotest.string) "c dropped" [ "a"; "b" ] (List.rev !ran);
  check Alcotest.int "clock stays" 25 (Engine.now e)

(* --- bit-width limits, checked where values are created --------------- *)

let pid_limit () =
  check Alcotest.int "23-bit owner field" ((1 lsl 23) - 2) Engine.max_pid;
  let e = Engine.create () in
  Engine.skip_pids e Engine.max_pid;
  (match Engine.spawn e (fun _ -> ()) with
  | exception Invalid_argument _ -> Alcotest.fail "max_pid itself must fit"
  | p -> check Alcotest.int "last pid" Engine.max_pid p);
  match Engine.spawn e (fun _ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pid past the owner field accepted"

let arena_limit () =
  check Alcotest.int "30-bit argument field" ((1 lsl 30) - 1) Engine.max_arg;
  let a = Dsim.Arena.create ~limit:3 in
  let slots = List.init 4 (fun i -> Dsim.Arena.alloc a i) in
  check (Alcotest.list Alcotest.int) "slots 0..limit" [ 0; 1; 2; 3 ] slots;
  Alcotest.check_raises "slot past the limit"
    (Invalid_argument "Arena.alloc: all 4 slots are in use") (fun () ->
      ignore (Dsim.Arena.alloc a 4 : int));
  check Alcotest.int "take returns the value" 2 (Dsim.Arena.take a 2);
  check Alcotest.int "freed slot is reused" 2 (Dsim.Arena.alloc a 9);
  check (Alcotest.list Alcotest.int) "live values in slot order" [ 0; 1; 9; 3 ]
    (Dsim.Arena.live a)

(* --- reset ------------------------------------------------------------ *)

(* Leave behind everything a run can: an oracle's lineage from a run
   its event limit stopped inside a tick, processes blocked in [await]
   and parked in [sleep], pending closures in the ring and in the heap,
   an extra kind with events of it queued, a second run stopped inside a
   tick, marked waits, trace entries, and an oracle left installed. *)
let dirty e =
  Engine.set_oracle e (Some { Engine.choose = (fun _ -> 0) });
  Engine.schedule e ~delay:0 (fun () ->
      Engine.schedule e ~delay:0 ignore;
      Engine.schedule e ~delay:0 ignore);
  check outcome_testable "oracle run stopped inside tick 0" Engine.Event_limit
    (Engine.run ~max_events:2 e);
  Engine.set_oracle e None;
  let q = Engine.queue e in
  let k = Engine.register_kind e ignore in
  Engine.schedule_kind e ~owner:(-1) ~delay:2 ~kind:k 1;
  Engine.schedule_kind e ~owner:(-1) ~delay:90 ~kind:k 2;
  let pids =
    Array.init 6 (fun i ->
        Engine.spawn e
          ~name:(fun () -> Printf.sprintf "dirty-%d" i)
          (fun ctx ->
            Engine.emit e ~tag:"dirty" (string_of_int (Dsim.Rng.int ctx.Engine.rng 100));
            if i mod 2 = 0 then Engine.await_cond q (fun () -> false)
            else Engine.sleep ctx (20 * i)))
  in
  Engine.schedule e ~delay:3 ignore;
  Engine.schedule e ~delay:500 ignore;
  check outcome_testable "run to 25" Engine.Time_limit (Engine.run ~until:25 e);
  Engine.kill e pids.(3);
  List.iter
    (fun d -> Engine.schedule e ~delay:5 (fun () -> Engine.emit e ~tag:"dirty" d))
    [ "a"; "b"; "c" ];
  check outcome_testable "stopped inside tick 30" Engine.Event_limit
    (Engine.run ~max_events:2 e);
  Engine.signal q;
  Engine.set_oracle e (Some { Engine.choose = (fun _ -> 0) });
  check Alcotest.int "clock moved" 30 (Engine.now e);
  check Alcotest.bool "trace written" true (Dsim.Trace.length (Engine.trace e) > 0)

(* A fixed scenario that reads what a fresh engine fixes: its pids,
   [ctx.rng] draws, sleeps, a kind it registers, a network's sends and
   deliveries, the trace, the outcome and the clock; and, under
   [oracle], every tie set's times, owners, seqs and creators.  The
   oracle is installed after the spawns, so setup events have no
   creator.  Returns its log, oldest first. *)
let reset_scenario ~oracle e =
  let log = ref [] in
  let note fmt =
    Printf.ksprintf (fun s -> log := Printf.sprintf "t=%d %s" (Engine.now e) s :: !log) fmt
  in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let k = Engine.register_kind e (fun arg -> note "kind event %d" arg) in
  note "kind %d" k;
  let net = Netsim.Async_net.create e ~n:3 ~retain_inbox:false () in
  for me = 0 to 2 do
    Netsim.Async_net.set_handler net me (fun env ->
        note "deliver #%d %d->%d sent at %d" env.Netsim.Async_net.env_id env.src env.dst
          env.sent_at)
  done;
  let q = Engine.queue e in
  let pids =
    Array.init 4 (fun i ->
        Engine.spawn e
          ~name:(fun () -> Printf.sprintf "node-%d" i)
          (fun ctx ->
            let d = Dsim.Rng.int ctx.Engine.rng 1000 in
            note "p%d draws %d" i d;
            if i = 3 then Engine.await_cond q (fun () -> false)
            else begin
              Engine.sleep ctx (1 + (d mod 7));
              Netsim.Async_net.broadcast net ~src:i i;
              Engine.schedule_kind e ~owner:i ~delay:2 ~kind:k i;
              Engine.emit e ~pid:i ~tag:"woke" (string_of_int (Dsim.Rng.int ctx.rng 1000));
              Engine.sleep ctx 70
            end))
  in
  note "pids %s" (ints pids);
  if oracle then
    Engine.set_oracle e
      (Some
         {
           Engine.choose =
             (fun c ->
               if c.Engine.c_domain = "sched" then
                 note "tie at %d owners %s seqs %s creators %s" c.c_time
                   (ints (Array.map (Option.value ~default:(-1)) c.c_owners))
                   (ints c.c_seqs) (ints c.c_creators);
               0);
         });
  Engine.schedule e ~delay:40 (fun () ->
      Engine.kill e pids.(1);
      Engine.kill e pids.(3));
  let outcome = Engine.run e in
  note "outcome %s"
    (match outcome with
    | Engine.Quiescent -> "quiescent"
    | Engine.Deadlock ps -> "deadlock " ^ ints (Array.of_list ps)
    | Engine.Time_limit | Event_limit -> "limit");
  note "engine stream %d" (Dsim.Rng.bits (Engine.rng e));
  List.iter
    (fun ev -> note "trace %s" (Format.asprintf "%a" Dsim.Trace.pp_event ev))
    (Dsim.Trace.events (Engine.trace e));
  List.rev !log

let reset_replays_create () =
  List.iter
    (fun oracle ->
      let seed = 77L in
      let fresh = reset_scenario ~oracle (Engine.create ~seed ()) in
      let e = Engine.create ~seed:3L () in
      dirty e;
      Engine.reset e ~seed;
      let label = if oracle then "under an oracle" else "plain" in
      check (Alcotest.list Alcotest.string) ("reset = create, " ^ label) fresh
        (reset_scenario ~oracle e);
      check Alcotest.bool ("scenario delivered messages, " ^ label) true
        (List.exists (fun l -> Astring_like.contains l "deliver") fresh))
    [ false; true ]

let suite =
  [
    Alcotest.test_case "schedule ordering" `Quick schedule_ordering;
    Alcotest.test_case "nested spawn" `Quick nested_spawn;
    prop_determinism;
    Alcotest.test_case "kill from sibling" `Quick kill_from_sibling_process;
    Alcotest.test_case "await passes value" `Quick await_value_passes_through;
    Alcotest.test_case "200-process stress" `Quick many_processes_stress;
    Alcotest.test_case "negative delay rejected" `Quick negative_delay_rejected;
    Alcotest.test_case "await immediate" `Quick await_immediate;
    Alcotest.test_case "await wakes on change" `Quick await_wakes_on_change;
    Alcotest.test_case "missed wake-up at deadlock" `Quick missed_wakeup_at_deadlock;
    Alcotest.test_case "missed wake-up under oracle" `Quick missed_wakeup_under_oracle;
    Alcotest.test_case "signalled owner is clean" `Quick signalled_owner_is_clean;
    Alcotest.test_case "unsignalled waits not polled" `Quick
      unsignalled_waits_are_not_polled;
    Alcotest.test_case "resume order newest first" `Quick resume_order_newest_first;
    Alcotest.test_case "clock wakes at tick's first event" `Quick
      clock_wakes_at_first_event_of_tick;
    Alcotest.test_case "queue of another engine" `Quick queue_of_another_engine;
    Alcotest.test_case "killed while running unwinds" `Quick
      killed_while_running_unwinds_at_wait;
    Alcotest.test_case "settle under oracle raises" `Quick settle_under_oracle_raises;
    Alcotest.test_case "settle unwinds parked processes" `Quick settle_unwinds_parked;
    Alcotest.test_case "settle drops rest of tick" `Quick settle_drops_rest_of_tick;
    Alcotest.test_case "pid limit" `Quick pid_limit;
    Alcotest.test_case "arena limit" `Quick arena_limit;
    Alcotest.test_case "sleep accumulates" `Quick sleep_accumulates;
    Alcotest.test_case "deadlock detection" `Quick deadlock_detection;
    Alcotest.test_case "kill runs finalizers" `Quick kill_blocked_process_runs_finalizers;
    Alcotest.test_case "kill sleeping process" `Quick kill_sleeping_process;
    Alcotest.test_case "kill idempotent" `Quick kill_is_idempotent;
    Alcotest.test_case "sleep zero interleaves" `Quick sleep_zero_interleaves;
    Alcotest.test_case "exception recorded" `Quick process_exception_is_recorded;
    Alcotest.test_case "time limit then resume" `Quick time_limit_then_resume;
    Alcotest.test_case "event limit" `Quick event_limit;
    Alcotest.test_case "event limit inside a tick resumes" `Quick
      event_limit_inside_tick_resumes;
    Alcotest.test_case "determinism" `Quick determinism_same_seed;
    Alcotest.test_case "names and ids" `Quick names_and_ids;
    Alcotest.test_case "reset replays create" `Quick reset_replays_create;
    Alcotest.test_case "suspension outside process" `Quick suspension_outside_process;
    Alcotest.test_case "emit goes to trace" `Quick emit_goes_to_trace;
    Alcotest.test_case "quiet never forces thunks" `Quick
      quiet_engine_never_forces_thunks;
    Alcotest.test_case "tracing toggle" `Quick tracing_toggle;
    Alcotest.test_case "run_quiet restores tracing" `Quick
      run_quiet_restores_tracing;
    Alcotest.test_case "quiet matches traced schedule" `Quick
      quiet_matches_traced_schedule;
    Alcotest.test_case "flat kind events" `Quick flat_kind_events;
    Alcotest.test_case "oracle bypasses batching" `Quick
      oracle_bypasses_batching;
  ]
