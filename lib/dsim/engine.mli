(** Deterministic discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  Simulated
    processes are written in direct style as ordinary OCaml functions; they
    suspend in one of two ways, {!await} on signalled state or {!sleep}
    for virtual time, and the engine resumes them when their wake-up
    condition is met.  All scheduling is deterministic: same seed, same
    program — same trace.

    Waiting is event-driven.  An {!await} names the {!queue}s whose
    owners change what its poll reads; an owner calls {!signal} after
    every change that can make a waiting poll hold; and after each event
    the engine re-polls only the waits a signal has marked.  Blocked
    processes that nobody signals cost nothing per event.

    A process body receives a {!ctx} carrying its pid and a private
    random-number stream split off the engine seed.  {!await} and {!sleep}
    may only be called from inside a process body; calling them elsewhere
    raises [Not_in_process]. *)

type t
type pid = int

type ctx = {
  engine : t;
  pid : pid;
  rng : Rng.t;  (** process-private deterministic stream *)
}

exception Killed
(** Raised inside a process when it is killed while suspended.  Protocol
    code must not catch it (or must re-raise). *)

exception Not_in_process
(** Raised when a suspension primitive is used outside a process body. *)

exception Missed_wakeup of pid
(** Raised by {!run} when a blocked process's poll holds although no
    signal marked it: some owner made the poll hold without signalling
    a queue the [await] names.  Checked when a run ends deadlocked, and
    after every event while a choice oracle is installed. *)

(** Why {!run} returned. *)
type outcome =
  | Quiescent  (** no events left and no process blocked *)
  | Deadlock of pid list  (** no events left but these pids still blocked *)
  | Time_limit  (** virtual [until] reached *)
  | Event_limit  (** [max_events] executed *)

val create : ?seed:int64 -> ?trace_capacity:int -> ?tracing:bool -> unit -> t
(** A fresh engine at time 0.  Default seed is 1.  [tracing:false]
    creates a {e quiet} engine: every {!emit}/{!emitk} is a no-op, so
    the message hot path allocates no trace strings at all.  Tracing
    only affects what the trace retains — never scheduling, RNG streams
    or outcomes — so a quiet run is bit-identical to a traced one. *)

val reset : t -> seed:int64 -> unit
(** [reset e ~seed] puts [e] back in the state [create ~seed] gives,
    with the trace capacity [e] was created with and its current
    {!tracing} flag, and keeps the storage its queue, process table and
    arena have grown: a nested run on a reset engine skips their
    regrowth.  {!create} is allocation followed by this reset.  Call
    it between runs, never from an event or a process of the engine.

    Everything the old run made belongs to it: clock, events and their
    seqs, the RNG stream, pids, waits, registered kinds past the two
    built-ins, pending closures, the oracle and its lineage, and the
    trace's events.  The old run's processes are dropped without
    unwinding, as when an engine is discarded.  Queues, kinds and pids
    made before the reset must not be used after it: a queue still
    names the engine but its waits are gone, and the pids and kind ids
    are handed out again from the start. *)

val now : t -> int
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine-level stream (used to split process streams). *)

val trace : t -> Trace.t
(** The engine's trace; emit protocol events through {!emit}. *)

val emit : t -> ?pid:pid -> tag:string -> string -> unit
(** Append a trace event stamped with the current virtual time.  Dropped
    without retaining anything when tracing is disabled; prefer {!emitk}
    whenever building the detail string allocates. *)

val emitk : t -> ?pid:pid -> tag:string -> (unit -> string) -> unit
(** Lazy {!emit}: the detail thunk is forced only when tracing is
    enabled, so disabled traces cost zero allocations on hot paths.
    The thunk must be pure — it is never forced on quiet engines. *)

val tracing : t -> bool
(** Whether {!emit}/{!emitk} currently append to the trace. *)

val set_tracing : t -> bool -> unit
(** Flip trace emission; already-retained events are kept either way. *)

val schedule : t -> ?owner:pid -> delay:int -> (unit -> unit) -> unit
(** Run a callback [delay] time units from now (same tick if [delay = 0]).
    [owner] is a commutativity label for schedule exploration: pass
    [Some pid] only when the callback mutates state local to [pid] alone
    (a message delivery into [pid]'s inbox/handler).  Events without an
    owner are never treated as commutative.  It has no effect on normal
    (oracle-free) runs.
    @raise Invalid_argument if [delay < 0]. *)

(** {1 Flat events — allocation-free scheduling for hot paths}

    Internally every queued event is a packed int, not a boxed closure:
    a {e kind} (dispatch-table index), an owner pid and a 30-bit
    argument.  {!schedule} is the generic path — it parks its thunk in
    an arena slot and packs the slot index.  Layers with a hot event
    shape (network delivery, timer fire, heartbeat probe) register a
    kind once and then schedule pure ints, so steady-state event traffic
    allocates nothing at all. *)

val register_kind : t -> (int -> unit) -> int
(** [register_kind t handler] allocates a new event kind on [t] and
    returns its id; when a matching event fires, [handler arg] runs with
    the 30-bit argument given at {!schedule_kind} time.  Kinds are
    per-engine and never freed (at most 1024 per engine).
    @raise Invalid_argument when the kind space is exhausted. *)

val schedule_kind : t -> owner:pid -> delay:int -> kind:int -> int -> unit
(** [schedule_kind t ~owner ~delay ~kind arg] queues a flat event:
    [kind]'s registered handler runs with [arg], [delay] units from now.
    [owner] carries the same commutativity label as {!schedule}'s
    [?owner], with [-1] meaning {e no owner} (avoiding the option
    allocation on hot paths).  Neither is checked here: [owner] must be
    at most {!max_pid} and [arg] at most {!max_arg}, which {!spawn} and
    {!Arena} enforce where pids and slots are created.  Allocates
    nothing.
    @raise Invalid_argument if [delay < 0]. *)

val max_pid : int
(** The largest pid (and owner label) an event can carry: [2^23 - 2]. *)

val max_arg : int
(** The largest flat-event argument: [2^30 - 1]. *)

(** {1 Choice oracle — systematic schedule exploration}

    By default every nondeterministic-looking decision in the engine is
    resolved deterministically (FIFO within a tick, seeded RNG).  A choice
    oracle takes those decisions over: each time more than one event is
    enabled at the current tick, the engine asks the oracle which fires
    first.  Layers above (e.g. {!Netsim}'s network) route their own
    decisions — per-message delay, drop-or-deliver — through the same
    oracle under different domains.  [lib/mcheck] drives this to enumerate
    executions instead of sampling them. *)

type choice = {
  c_domain : string;
      (** what is being decided: ["sched"] = which tied event fires first;
          other layers add their own (["net.delay"], ["net.fault"]) *)
  c_arity : int;
      (** number of alternatives; 0 means open-ended (any [int >= 0]) *)
  c_owners : int option array;
      (** for ["sched"]: the tied events' owner labels, in the order
          {!pop_min_nth} indexes them; empty for other domains *)
  c_time : int;
      (** for ["sched"]: the virtual time the tied events fire at — two
          consultations race-analyse against each other only when their
          times are equal; 0 for other domains *)
  c_seqs : int array;
      (** for ["sched"]: the tied events' queue insertion seqs, parallel
          to [c_owners].  Seqs are dense per run and deterministic given
          the oracle's answers, so they identify an event across the
          consultations of one execution; empty for other domains *)
  c_creators : int array;
      (** for ["sched"]: [c_creators.(i)] is the seq of the event whose
          execution scheduled tied event [i], or [-1] when it was
          scheduled during setup (spawns, initial sends).  Following
          these edges transitively yields the creation-chain
          happens-before relation DPOR needs; empty for other domains *)
}

type oracle = { choose : choice -> int }
(** [choose c] returns the selected alternative: for ["sched"] an index
    into the tied group ([0 <= i < c_arity]); for other domains whatever
    the consulting layer documents.  [choose] for ["sched"] runs {e
    outside} any process fiber, so it may raise to abort the run; other
    domains are consulted from inside fibers, where an exception is
    recorded as that process's failure instead of propagating. *)

val set_oracle : t -> oracle option -> unit
(** Install (or remove) the choice oracle.  [None] — the default —
    restores the engine's native FIFO-within-tick behaviour exactly. *)

val oracle : t -> oracle option
(** The installed oracle, for layers that route their own choices. *)

val spawn : t -> ?name:(unit -> string) -> (ctx -> unit) -> pid
(** Register a new process; its body starts at the current time (the spawn
    event is queued, not run inline).  [name] renders the diagnostic
    name; only {!name} and the [kill] trace line call it, so a run that
    never reads names never builds one.  It must be pure.
    @raise Invalid_argument when the pid would exceed {!max_pid}. *)

val kill : t -> pid -> unit
(** Terminate a process.  If it is suspended, its continuation is
    discontinued with {!Killed}; it will never run again.  A process
    that kills itself (or is killed while it runs) unwinds with
    {!Killed} at its next suspension. *)

val alive : t -> pid -> bool
(** True while the process has neither finished nor been killed. *)

val name : t -> pid -> string
(** Diagnostic name: what the [name] given at spawn time renders, called
    afresh on every read, or ["p<pid>"] without one. *)

val process_failed : t -> pid -> exn option
(** The exception that terminated the process abnormally, if any ([Killed]
    does not count as a failure). *)

val run : ?until:int -> ?max_events:int -> t -> outcome
(** Drive the simulation until quiescence, deadlock, the virtual-time limit
    or the event budget.  Can be called repeatedly (e.g. after scheduling
    more events); a run the event budget stops inside a tick leaves the
    rest of that tick for the next one, in order.
    @raise Missed_wakeup when a wait's poll holds unsignalled (see
    {!Missed_wakeup}). *)

val run_quiet : ?until:int -> ?max_events:int -> t -> outcome
(** {!run} with tracing disabled for the duration of the call (the
    previous flag is restored afterwards) — the profile campaigns and
    benches use when nobody will read the trace. *)

val settle : t -> unit
(** Discard every pending event and move the clock to the latest of
    their times: the state {!run} would reach if those events did
    nothing.  Call it from a process body or between runs, once the
    result the caller reads is fixed; a {!run} in progress then finds
    the queue empty.  Called from an event in the middle of a tick, it
    drops the tick's later events with the rest.

    The contract: [settle] is sound only when every remaining event is
    inert to the caller — running it, and whatever it schedules, would
    change nothing the caller reads afterwards.  The engine cannot
    check that.  The clock counts as read: {!now} is then the full
    run's final clock if the remaining events schedule nothing further,
    and a lower bound of it otherwise.  A nested consensus instance
    whose nodes have all returned is the intended case: what is left
    are deliveries into tallies nobody reads, and the caller reads only
    the decision and the clock.  Layers that keep state for their own
    events (a network's in-flight messages and delivery counts) are not
    told, so read nothing from them afterwards that a full run would
    have changed.

    Processes parked in {!sleep} lose their wake-up event, so they are
    killed and unwound with {!Killed} (finalizers run), as {!kill}
    does, in pid order; events scheduled while they unwind stay queued.
    Processes blocked in {!await} stay blocked, and a process whose
    first step is still pending never runs.  The latest key is found by scanning the queue here, so
    scheduling and {!run} do no bookkeeping for it.
    @raise Invalid_argument under a choice oracle: every event there is
    a choice the explorer must see. *)

(** {1 Wait queues}

    A queue stands for a piece of state and the owner that changes it:
    a tally, an inbox, a log.  The owner calls {!signal} after every
    change that can make a waiting poll hold; a process whose poll reads
    that state names the queue in its {!await}.  An owner that knows
    its waiters' polls may skip the rest: a tally whose every wait is
    for a count to reach a quorum signals only when it does.

    Resume order is the polled engine's: after each event the marked
    waits are re-polled newest blocker first, and after every wake-up
    the scan starts again from the newest.  An unmarked wait's poll
    result cannot have changed since it last returned [None], so
    leaving it out changes nothing, and seeded traces are identical to
    polling every blocked process after every event. *)

type queue
(** A wait queue.  Belongs to one engine. *)

val queue : t -> queue
(** A fresh queue on the engine. *)

val signal : queue -> unit
(** Mark every process blocked on the queue for re-polling after the
    current event (or, outside {!run}, at the start of the next one).
    O(1) when nobody waits; never runs a poll itself. *)

val clock : t -> queue
(** The engine's own queue: signalled whenever virtual time advances.
    A poll that reads {!now} names it. *)

(** {1 Suspension primitives — call only inside a process body} *)

val await : queue -> (unit -> 'a option) -> 'a
(** [await q poll] suspends until [poll ()] returns [Some v], then
    evaluates to [v].  If the condition already holds the process
    continues immediately without suspending.

    The contract: [poll] may read only state whose owner signals [q]
    (or, with {!await_any}, one of the named queues) after every change
    that can make a waiting poll hold.  The engine runs [poll] once
    before the process blocks, once after each event that signalled a
    named queue, and in the wake-up checks (see {!Missed_wakeup}); it
    must only read.
    @raise Invalid_argument (inside the process) if [q] belongs to
    another engine. *)

val await_any : queue list -> (unit -> 'a option) -> 'a
(** {!await} on several queues: a signal on any of them re-polls.
    @raise Invalid_argument on an empty list. *)

val await_cond : queue -> (unit -> bool) -> unit
(** [await_cond q p] is [await q (fun () -> if p () then Some () else None)]. *)

val sleep : ctx -> int -> unit
(** Suspend for a fixed amount of virtual time (a negative amount counts
    as 0).  [sleep ctx 0] resumes after the current tick's
    already-queued events have run. *)

(**/**)

val skip_pids : t -> int -> unit
(* Testing hook: advance the pid counter without spawning, so the
   {!max_pid} check can be exercised without millions of processes. *)
