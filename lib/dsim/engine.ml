type pid = int

exception Killed
exception Not_in_process
exception Missed_wakeup of pid

type proc_state = Running | Finished | Dead

type choice = {
  c_domain : string;
  c_arity : int;
  c_owners : int option array;
  c_time : int;  (* virtual time of the tied events ("sched" only) *)
  c_seqs : int array;  (* queue insertion seqs: stable per-run identity *)
  c_creators : int array;
      (* c_creators.(i) = seq of the event whose execution scheduled
         tied event i, or -1 when scheduled during setup — the
         creation-chain edges a DPOR happens-before analysis needs *)
}

type oracle = { choose : choice -> int }

(* Events are packed ints, not boxed records: bits 0..9 hold the kind
   (an index into the dispatch table), bits 10..32 the owner pid plus
   one (0 = no owner), bits 33..62 the kind-specific argument.  Kind 0
   runs a closure from the arena below; kind 1 resumes a sleeping
   process (arg = pid); layers register further kinds so their hot paths
   never allocate a closure per event. *)
let k_closure = 0
let k_resume = 1
let kind_bits = 10
let owner_bits = 23
let max_kinds = 1 lsl kind_bits
let kind_mask = max_kinds - 1
let owner_mask = (1 lsl owner_bits) - 1
let arg_shift = kind_bits + owner_bits
let max_arg = (1 lsl (63 - arg_shift)) - 1

(* The owner field stores pid + 1, so the largest pid it holds is one
   below the field's all-ones value. *)
let max_pid = owner_mask - 1

let pack ~kind ~owner ~arg =
  (arg lsl arg_shift) lor ((owner + 1) lsl kind_bits) lor kind

let ev_owner ev = ((ev lsr kind_bits) land owner_mask) - 1

(* Waits are named by packed ints too: the block stamp above the pid.
   Stamps grow with every block, so a larger entry is a later blocker —
   the newest-first order the marked heap pops in. *)
let max_stamp = max_int lsr owner_bits

type proc = {
  p_pid : pid;
  p_name : (unit -> string) option;  (* rendered only when read; [None]: "p<pid>" *)
  mutable p_state : proc_state;
  mutable p_failure : exn option;
  mutable p_k : (unit, unit) Effect.Deep.continuation option;
      (* pending sleep resume — a fiber has one suspension point *)
  mutable p_wait : wait;
}

(* A process blocked in [await]: its poll and continuation, and whether
   a signal has marked it for re-polling since its last false poll. *)
and wait =
  | Idle
  | Wait : {
      w_stamp : int;
      w_poll : unit -> 'a option;
      w_k : ('a, unit) Effect.Deep.continuation;
      mutable w_marked : bool;
    }
      -> wait

(* A wait queue holds the entries of the waits registered on it.  An
   entry goes stale when its wait ends; [signal] and registration drop
   stale entries, so ending a wait never touches its queues. *)
and queue = { q_eng : t; mutable q_ws : int array; mutable q_n : int }

and t = {
  mutable now : int;
  events : Equeue.t;
  tr : Trace.t;
  mutable tracing : bool;
  mutable engine_rng : Rng.t;
  mutable parr : proc array;  (* indexed by pid; pids are sequential *)
  mutable next_pid : int;
  mutable stamp : int;  (* the next wait's stamp *)
  mutable nblocked : int;
  (* marked waits: a binary max-heap of entries, newest blocker on top *)
  mutable mheap : int array;
  mutable mlen : int;
  clock : queue;  (* signalled whenever [now] advances *)
  mutable oracle : oracle option;
  (* Event lineage, tracked only while an oracle is installed (the
     DPOR analysis reads it through [c_creators]; the quiet hot path
     pays one predictable branch in [schedule_kind]). *)
  mutable lineage : bool;
  mutable creators : int array;  (* seq -> creating event's seq, or -1 *)
  mutable cur_seq : int;  (* seq of the event currently executing, -1 at setup *)
  mutable dispatch : (int -> unit) array;  (* kind -> handler of arg *)
  mutable kind_count : int;
  closures : (unit -> unit) Arena.t;  (* pending [schedule]d thunks *)
}

type ctx = { engine : t; pid : pid; rng : Rng.t }

type outcome = Quiescent | Deadlock of pid list | Time_limit | Event_limit

type _ Effect.t +=
  | Await : queue * queue list * (unit -> 'a option) -> 'a Effect.t
  | Sleep : int -> unit Effect.t

let dummy_proc =
  {
    p_pid = -1;
    p_name = None;
    p_state = Dead;
    p_failure = None;
    p_k = None;
    p_wait = Idle;
  }

(* ---------------------------------------------------------- wait queues -- *)

let entry_pid e = e land owner_mask
let entry_stamp e = e lsr owner_bits

let mark_push t e =
  let n = t.mlen in
  if n = Array.length t.mheap then begin
    let nh = Array.make (max 16 (2 * n)) 0 in
    Array.blit t.mheap 0 nh 0 n;
    t.mheap <- nh
  end;
  let h = t.mheap in
  let i = ref n in
  while !i > 0 && h.((!i - 1) / 2) < e do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- e;
  t.mlen <- n + 1

let mark_pop t =
  let h = t.mheap in
  let top = h.(0) in
  let n = t.mlen - 1 in
  t.mlen <- n;
  if n > 0 then begin
    let e = h.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && h.(l + 1) > h.(l) then l + 1 else l in
        if h.(c) > e then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- e
  end;
  top

let entry_live t e =
  match t.parr.(entry_pid e).p_wait with
  | Wait w -> w.w_stamp = entry_stamp e
  | Idle -> false

let queue t = { q_eng = t; q_ws = [||]; q_n = 0 }
let clock t = t.clock

(* Mark every live wait on [q] and drop the stale entries in passing. *)
let signal_slow q =
  let t = q.q_eng and ws = q.q_ws in
  let j = ref 0 in
  for i = 0 to q.q_n - 1 do
    let e = ws.(i) in
    match t.parr.(entry_pid e).p_wait with
    | Wait w when w.w_stamp = entry_stamp e ->
        ws.(!j) <- e;
        incr j;
        if not w.w_marked then begin
          w.w_marked <- true;
          mark_push t e
        end
    | Wait _ | Idle -> ()
  done;
  q.q_n <- !j

let signal q = if q.q_n > 0 then signal_slow q

(* A full queue first sheds its stale entries and grows only if that
   leaves it at least half full, so churn on an unsignalled queue stays
   amortized O(1). *)
let enlist q e =
  if q.q_n = Array.length q.q_ws then begin
    let t = q.q_eng and ws = q.q_ws in
    let j = ref 0 in
    for i = 0 to q.q_n - 1 do
      if entry_live t ws.(i) then begin
        ws.(!j) <- ws.(i);
        incr j
      end
    done;
    q.q_n <- !j;
    if 2 * !j >= Array.length ws then begin
      let nw = Array.make (max 4 (2 * Array.length ws)) 0 in
      Array.blit ws 0 nw 0 !j;
      q.q_ws <- nw
    end
  end;
  q.q_ws.(q.q_n) <- e;
  q.q_n <- q.q_n + 1

let rec enlist_all e = function
  | [] -> ()
  | q :: rest ->
      enlist q e;
      enlist_all e rest

let rec all_owned t = function
  | [] -> true
  | q :: rest -> q.q_eng == t && all_owned t rest

(* Re-poll the marked waits, newest blocker first, until none is left.
   A wake can signal and so mark further waits; the heap orders those
   with the rest, which is exactly the polled engine's restart-from-the-
   head scan with the waits whose poll results could not have changed
   left out. *)
let drain_marked t =
  while t.mlen > 0 do
    let e = mark_pop t in
    let p = t.parr.(entry_pid e) in
    match p.p_wait with
    | Wait w when w.w_stamp = entry_stamp e -> (
        w.w_marked <- false;
        match w.w_poll () with
        | None -> ()
        | Some v ->
            p.p_wait <- Idle;
            t.nblocked <- t.nblocked - 1;
            Effect.Deep.continue w.w_k v)
    | Wait _ | Idle -> ()
  done

(* Inline check: the common nothing-marked case is one load. *)
let drain_ready t = if t.mlen > 0 then drain_marked t

(* Poll every blocked wait once; one that holds was never signalled. *)
let check_wakeups t =
  for pid = 0 to Array.length t.parr - 1 do
    match t.parr.(pid).p_wait with
    | Wait w -> (
        match w.w_poll () with Some _ -> raise (Missed_wakeup pid) | None -> ())
    | Idle -> ()
  done

let blocked_pids t =
  let acc = ref [] in
  for pid = Array.length t.parr - 1 downto 0 do
    match t.parr.(pid).p_wait with Wait _ -> acc := pid :: !acc | Idle -> ()
  done;
  !acc

let advance t time =
  if time <> t.now then begin
    t.now <- time;
    signal t.clock
  end

(* -------------------------------------------------------- kinds & API -- *)

let invalid_kind (_ : int) = invalid_arg "Engine: event kind not registered"

let register_kind t handler =
  let k = t.kind_count in
  if k >= max_kinds then invalid_arg "Engine.register_kind: kind space exhausted";
  if k = Array.length t.dispatch then begin
    let nd = Array.make (min max_kinds (2 * Array.length t.dispatch)) invalid_kind in
    Array.blit t.dispatch 0 nd 0 k;
    t.dispatch <- nd
  end;
  t.dispatch.(k) <- handler;
  t.kind_count <- k + 1;
  k

(* Record who scheduled the event the last [Equeue.add] enqueued.  Seqs
   are dense from 0, so a flat array indexed by seq suffices. *)
let note_created t =
  let s = Equeue.last_seq t.events in
  let cap = Array.length t.creators in
  if s >= cap then begin
    let ncap = max 64 (max (s + 1) (2 * cap)) in
    let nc = Array.make ncap (-1) in
    Array.blit t.creators 0 nc 0 cap;
    t.creators <- nc
  end;
  t.creators.(s) <- t.cur_seq

let schedule_kind t ~owner ~delay ~kind arg =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  Equeue.add t.events ~key:(t.now + delay) (pack ~kind ~owner ~arg);
  if t.lineage then note_created t

(* A resume event continues the process's sleep; a process killed
   while it slept unwinds here. *)
let resume_proc t pid =
  let p = t.parr.(pid) in
  match p.p_k with
  | Some k ->
      p.p_k <- None;
      if p.p_state = Running then Effect.Deep.continue k ()
      else Effect.Deep.discontinue k Killed
  | None -> ()

(* Everything a run leaves behind goes, the storage stays.  The old
   run's processes are dropped, not unwound, as a discarded engine's
   are. *)
let reset t ~seed =
  t.now <- 0;
  Equeue.reset t.events;
  Trace.reset t.tr;
  t.engine_rng <- Rng.create seed;
  Array.fill t.parr 0 (Array.length t.parr) dummy_proc;
  t.next_pid <- 0;
  t.stamp <- 0;
  t.nblocked <- 0;
  t.mlen <- 0;
  t.clock.q_n <- 0;
  t.oracle <- None;
  t.lineage <- false;
  Array.fill t.creators 0 (Array.length t.creators) (-1);
  t.cur_seq <- -1;
  Array.fill t.dispatch 0 (Array.length t.dispatch) invalid_kind;
  t.kind_count <- 0;
  Arena.reset t.closures;
  (* Free the slot before running, so the thunk can schedule into it. *)
  let kc = register_kind t (fun slot -> (Arena.take t.closures slot) ()) in
  let kr = register_kind t (fun pid -> resume_proc t pid) in
  assert (kc = k_closure && kr = k_resume)

let create ?(seed = 1L) ?trace_capacity ?(tracing = true) () =
  let rec t =
    {
      now = 0;
      events = Equeue.create ();
      tr = Trace.create ?capacity:trace_capacity ();
      tracing;
      engine_rng = Rng.create seed;
      parr = Array.make 16 dummy_proc;
      next_pid = 0;
      stamp = 0;
      nblocked = 0;
      mheap = [||];
      mlen = 0;
      clock = { q_eng = t; q_ws = [||]; q_n = 0 };
      oracle = None;
      lineage = false;
      creators = [||];
      cur_seq = -1;
      dispatch = Array.make 4 invalid_kind;
      kind_count = 0;
      closures = Arena.create ~limit:max_arg;
    }
  in
  reset t ~seed;
  t

let now t = t.now
let rng t = t.engine_rng
let trace t = t.tr
let tracing t = t.tracing
let set_tracing t on = t.tracing <- on

let emit t ?pid ~tag detail =
  if t.tracing then Trace.emit t.tr ~time:t.now ?pid ~tag detail

let emitk t ?pid ~tag detail =
  if t.tracing then Trace.emit t.tr ~time:t.now ?pid ~tag (detail ())

let schedule t ?owner ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let ow = match owner with None -> -1 | Some p -> p in
  let slot = Arena.alloc t.closures f in
  Equeue.add t.events ~key:(t.now + delay) (pack ~kind:k_closure ~owner:ow ~arg:slot);
  if t.lineage then note_created t

let set_oracle t o =
  t.oracle <- o;
  t.lineage <- (match o with Some _ -> true | None -> false)

let oracle t = t.oracle

let proc t pid =
  if pid >= 0 && pid < t.next_pid then t.parr.(pid)
  else invalid_arg (Printf.sprintf "Engine: unknown pid %d" pid)

let alive t pid = pid >= 0 && pid < t.next_pid && t.parr.(pid).p_state = Running
let proc_name p =
  match p.p_name with Some name -> name () | None -> Printf.sprintf "p%d" p.p_pid

let name t pid = proc_name (proc t pid)
let process_failed t pid = (proc t pid).p_failure

(* Suspension primitives: plain effect performers.  They raise
   [Unhandled] as [Not_in_process] when no engine handler is installed.
   [await] polls once before suspending, so the handler need not. *)

let await_on q qs poll =
  match poll () with
  | Some v -> v
  | None -> (
      try Effect.perform (Await (q, qs, poll))
      with Effect.Unhandled _ -> raise Not_in_process)

let await q poll = await_on q [] poll

let await_any qs poll =
  match qs with
  | [] -> invalid_arg "Engine.await_any: no queue"
  | q :: rest -> await_on q rest poll

let await_cond q p = await q (fun () -> if p () then Some () else None)

let sleep _ctx d =
  try Effect.perform (Sleep d) with Effect.Unhandled _ -> raise Not_in_process

(* Fiber plumbing -------------------------------------------------------- *)

let run_fiber t (p : proc) body =
  let handler : type b. b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option
      = function
    | Await (q, qs, poll) ->
        Some
          (fun k ->
            (* a process killed while running unwinds at its next wait *)
            if p.p_state <> Running then Effect.Deep.discontinue k Killed
            else if not (q.q_eng == t && all_owned t qs) then
              Effect.Deep.discontinue k
                (Invalid_argument "Engine.await: queue of another engine")
            else begin
              let stamp = t.stamp in
              if stamp > max_stamp then failwith "Engine.await: wait stamps exhausted";
              t.stamp <- stamp + 1;
              p.p_wait <- Wait { w_stamp = stamp; w_poll = poll; w_k = k; w_marked = false };
              t.nblocked <- t.nblocked + 1;
              let e = (stamp lsl owner_bits) lor p.p_pid in
              enlist q e;
              enlist_all e qs
            end)
    | Sleep d ->
        Some
          (fun k ->
            let d = if d < 0 then 0 else d in
            p.p_k <- Some k;
            schedule_kind t ~owner:(-1) ~delay:d ~kind:k_resume p.p_pid)
    | _ -> None
  in
  Effect.Deep.match_with body ()
    {
      retc = (fun () -> if p.p_state = Running then p.p_state <- Finished);
      exnc =
        (fun exn ->
          match exn with
          | Killed -> p.p_state <- Dead
          | exn ->
              p.p_state <- Dead;
              p.p_failure <- Some exn;
              emitk t ~pid:p.p_pid ~tag:"crash" (fun () ->
                  Printf.sprintf "uncaught exception: %s" (Printexc.to_string exn)));
      effc = handler;
    }

let spawn t ?name body =
  let pid = t.next_pid in
  if pid > max_pid then
    invalid_arg
      (Printf.sprintf "Engine.spawn: pid %d does not fit the %d-bit owner field"
         pid owner_bits);
  t.next_pid <- pid + 1;
  if pid >= Array.length t.parr then begin
    let np = Array.make (max (pid + 1) (2 * Array.length t.parr)) dummy_proc in
    Array.blit t.parr 0 np 0 (Array.length t.parr);
    t.parr <- np
  end;
  let p =
    { p_pid = pid; p_name = name; p_state = Running; p_failure = None; p_k = None;
      p_wait = Idle }
  in
  t.parr.(pid) <- p;
  let proc_rng = Rng.split t.engine_rng in
  let ctx = { engine = t; pid; rng = proc_rng } in
  schedule t ~owner:pid ~delay:0 (fun () ->
      if p.p_state = Running then run_fiber t p (fun () -> body ctx));
  pid

let skip_pids t n = t.next_pid <- t.next_pid + n

let kill t pid =
  if pid >= 0 && pid < t.next_pid then begin
    let p = t.parr.(pid) in
    if p.p_state = Running then begin
      p.p_state <- Dead;
      emitk t ~pid ~tag:"kill" (fun () -> proc_name p);
      (* Discontinue a blocked continuation now so the fiber unwinds;
         sleeping continuations notice at wake-up.  The wait's queue
         and heap entries go stale with it. *)
      match p.p_wait with
      | Idle -> ()
      | Wait w ->
          p.p_wait <- Idle;
          t.nblocked <- t.nblocked - 1;
          Effect.Deep.discontinue w.w_k Killed
    end
  end

(* Drop every pending event as if it had run and done nothing: the clock
   moves to the latest of their times, which one scan of the queue finds
   here, so the schedule paths keep no running maximum.  A dropped resume
   event belongs to a process parked in [sleep]; once the queue is empty
   it is killed and unwound, as [kill] would have left it to unwind at
   that event, in pid order. *)
let settle t =
  (match t.oracle with
  | Some _ -> invalid_arg "Engine.settle: a choice oracle is installed"
  | None -> ());
  let parked = ref [] in
  let discard ev =
    let kind = ev land kind_mask and arg = ev lsr arg_shift in
    if kind = k_closure then ignore (Arena.take t.closures arg : unit -> unit)
    else if kind = k_resume then parked := arg :: !parked
  in
  advance t (max t.now (Equeue.drain t.events discard));
  List.iter
    (fun pid ->
      kill t pid;
      resume_proc t pid)
    (List.sort compare !parked)

(* [lsr], not [asr]: the arg field reaches bit 62 (the sign bit of a
   63-bit int), so an arithmetic shift would sign-extend args with the
   top bit set. *)
let exec t ev = t.dispatch.(ev land kind_mask) (ev lsr arg_shift)

(* Out of events with processes still blocked: a wait whose poll holds
   here was never signalled — an owner changed state it reads without
   signalling a queue it names. *)
let finish t =
  if t.nblocked = 0 then Quiescent
  else begin
    check_wakeups t;
    Deadlock (blocked_pids t)
  end

(* With an oracle installed every tick where more than one event is
   enabled becomes an explicit choice point: the oracle sees the tied
   events' owners and picks which fires first. *)
let creator_of t s =
  if s >= 0 && s < Array.length t.creators then t.creators.(s) else -1

let pop_next_oracle t o =
  match Equeue.min_key_count t.events with
  | 0 -> None
  | 1 ->
      (* No choice to make, but the event still becomes the creator of
         whatever its execution schedules. *)
      (match Equeue.min_key_seqs t.events with
      | [ s ] -> t.cur_seq <- s
      | _ -> ());
      Equeue.pop t.events
  | arity ->
      let owners =
        Array.of_list
          (List.map
             (fun ev ->
               let ow = ev_owner ev in
               if ow < 0 then None else Some ow)
             (Equeue.min_key_values t.events))
      in
      let seqs = Array.of_list (Equeue.min_key_seqs t.events) in
      let creators = Array.map (fun s -> creator_of t s) seqs in
      let idx =
        o.choose
          {
            c_domain = "sched";
            c_arity = arity;
            c_owners = owners;
            c_time = Equeue.peek_key_fast t.events;
            c_seqs = seqs;
            c_creators = creators;
          }
      in
      t.cur_seq <- seqs.(idx);
      Equeue.pop_min_nth t.events idx

let run ?until ?max_events t =
  let limit = match until with Some l -> l | None -> max_int in
  let budget = match max_events with Some m -> m | None -> max_int in
  let executed = ref 0 in
  (* A bool stop flag, not an [outcome option]: [= None] is polymorphic
     equality and this test sits on the per-event hot path. *)
  let stop = ref false in
  let result = ref Quiescent in
  let finish_with o =
    result := o;
    stop := true
  in
  drain_ready t;
  (* The oracle is fixed before [run] (every [set_oracle] caller installs
     its own during setup), so its match hoists out of the per-event
     loop. *)
  let q = t.events in
  (match t.oracle with
  | Some o ->
      (* Oracle mode: the limit putback happens after the pop — the
         oracle's choice is consumed either way, exactly like the
         classic engine. *)
      while not !stop do
        match pop_next_oracle t o with
        | None -> finish_with (finish t)
        | Some (time, ev) ->
            if time > limit then begin
              Equeue.add q ~key:time ev;
              advance t limit;
              finish_with Time_limit
            end
            else begin
              advance t time;
              exec t ev;
              drain_ready t;
              (* the audit: every wait left blocked must still poll
                 false, or some owner failed to signal *)
              if t.nblocked > 0 then check_wakeups t;
              incr executed;
              if !executed >= budget then finish_with Event_limit
            end
      done
  | None ->
      while not !stop do
        if Equeue.is_empty q then finish_with (finish t)
        else begin
          let time = Equeue.peek_key_fast q in
          if time > limit then begin
            (* Pop-and-re-add, preserving the classic engine's tiebreak
               bump for events deferred past the limit. *)
            let ev = Equeue.pop_value q in
            Equeue.add q ~key:time ev;
            advance t limit;
            finish_with Time_limit
          end
          else begin
            advance t time;
            exec t (Equeue.pop_value q);
            drain_ready t;
            incr executed;
            if !executed >= budget then finish_with Event_limit
          end
        end
      done);
  !result

let run_quiet ?until ?max_events t =
  let prev = t.tracing in
  t.tracing <- false;
  Fun.protect
    ~finally:(fun () -> t.tracing <- prev)
    (fun () -> run ?until ?max_events t)
