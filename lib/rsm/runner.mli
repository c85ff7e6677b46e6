(** End-to-end RSM harness: K closed-loop clients drive one {!Group}
    under a fault schedule.

    The harness is a universal construction: it runs any per-replica
    {!Group.machine} whose output is the operation's encoded response.
    The KV store is one instance ([Obj.Kv] lifted via
    [Obj.Replicated]).  The group owns the replicas, their disks and
    what a crash erases; the runner owns only the clients, the fault
    schedules and the report.  The last client to finish stops the
    group, and a run with no client stops it before it starts.

    Clients are closed-loop with retry: each submits its next command to
    a live replica, waits for the group's ack rule ([on_ready] in
    {!Group.create}), and re-submits through another replica on
    timeout — so a command whose entry replica crashed mid-broadcast is
    still eventually ordered, and the duplicate-suppression path is
    exercised whenever the first copy survives after all.

    The ack wait is signalled: [on_ready] wakes the client at the event
    where the rule first holds.  One runner-owned tick serves every
    client's [ack_timeout]: every 10 ticks it wakes the clients whose
    deadline has passed, so a re-submission comes at the first tick at
    or after the deadline.  The tick stops once the last client is done,
    so it holds no finished run open: a fault-free run ends less than 10
    ticks after its last ack, and [virtual_time] is still the time the
    work ended.

    Faults come in two layers: the static [crash_schedule] /
    [restart_schedule] pairs (crash–stop and crash–recovery), and the
    generic [inject] hook handing the {!Group.t} itself to an external
    fault injector (the [Nemesis] subsystem), which drives its fault
    surface — crash, restart, partition, heal, the per-message adversary
    policy and the storage fault policy — and schedules on
    {!Group.engine}. *)

type store_config = Group.store_config = {
  policy : Store.Policy.t;
  snapshot_every : int;
  ack_before_fsync : bool;
}
(** See {!Group.store_config}. *)

val default_store_config : store_config
(** Honest disks ({!Store.Policy.none}), snapshot every 4 non-empty
    slots, ack after fsync. *)

type ('op, 'st) config = {
  backend : Backend.t;
  n : int;  (** replicas *)
  batch : int;  (** max commands per slot proposal *)
  seed : int64;
  crash_schedule : (int * int) list;
      (** [(virtual_time, pid)]: crash-stop that replica at that time *)
  restart_schedule : (int * int) list;
      (** [(virtual_time, pid)]: restart that replica at that time
          (no-op unless it crashed earlier) *)
  inject : (('op, 'st, string) Group.t -> unit) option;
      (** fault-injection hook, run once at virtual time 0, after the
          group is wired and before the simulation starts *)
  trace_capacity : int option;
      (** bound retained trace events (None = unbounded); long campaigns
          should bound this so traces don't retain the whole run *)
  quiet : bool;
      (** run the engine with tracing disabled: no trace strings are
          built or retained.  Scheduling, RNG draws and outcomes are
          unaffected — the checker never reads the trace — so quiet
          runs produce the same results as traced runs. *)
  ops : 'op list array;  (** one command list per client *)
  ack_timeout : int;
      (** virtual time before a client re-submits, rounded up to the
          deadline tick's 10-tick grid *)
  max_events : int;  (** engine event budget (runaway guard) *)
  store : store_config option;
      (** [Some _] gives every replica a disk and a WAL, acks only
          durable commands, and recovers a restarted replica from what
          its disk reproduces (see {!Group}); [None] keeps the
          recoverable model where memory survives crashes. *)
}

val default_config : n:int -> ops:'op list array -> ('op, 'st) config
(** Ben-Or backend, batch 8, seed 1, no faults, unbounded trace, ack
    timeout 2000, 5M event budget, no store.  Messages take
    {!Group.create}'s latency, uniform 1-10. *)

type 'op hist = {
  h_cid : int;
  h_client : int;
  h_op : 'op;
  h_invoked : int;  (** virtual time the client submitted *)
  h_resp : string option;
      (** the encoded response the cluster computed at the command's
          first application, if it was applied anywhere *)
  h_returned : int option;
      (** virtual time the client saw the ack; [None] = still pending
          when the run ended (its effect may or may not have taken
          place) *)
}
(** One operation of the run's concurrent history, as a spec-agnostic
    record — feed these to the Wing–Gong checker ([Obj.Replicated])
    for a per-object linearizability verdict. *)

type 'op report = {
  engine_outcome : Dsim.Engine.outcome;
  virtual_time : int;
      (** time of the last processed event; the deadline tick adds at
          most 9 ticks after the last ack *)
  submitted : int;  (** distinct client commands *)
  acked : int;  (** commands whose clients saw delivery *)
  delivered : int array;  (** per-replica to-delivered counts *)
  slots : int;  (** consensus slots decided *)
  instances : int;  (** binary backend instances consumed *)
  messages_sent : int;
  messages_delivered : int;
  crashed : int list;  (** crash events during the run, in order *)
  restarted : int list;  (** restart events during the run, in order *)
  violations : Checker.violation list;
      (** order, integrity and duplication violations — the safety gate *)
  completeness : Checker.violation list;
      (** submitted commands missing at live replicas — the liveness gate *)
  durability : Checker.violation list;
      (** acked commands surviving at no live replica — the durability
          audit (empty for honest stores; non-empty flags acking
          non-durable commands, e.g. [ack_before_fsync]) *)
  digests_agree : bool;
      (** all live replicas' final object states are identical *)
  digests : string array;  (** per-replica final state digest *)
  history : 'op hist list;
      (** the full concurrent history, sorted by invocation time *)
  latencies : float list;
      (** per-command submit-to-ack virtual times, acked commands only *)
  trace : Dsim.Trace.t;
      (** the run's structured trace (slot decisions, crashes, ...);
          read with {!Dsim.Trace.events} / {!Dsim.Trace.last} *)
  store_stats : Store.Disk.stats array;
      (** per-replica disk counters ([[||]] when no store) *)
  disks : Store.Disk.t array;
      (** the replicas' disks, for post-run inspection — WAL records and
          snapshot chains ([[||]] when no store) *)
}

val run : ('op, 'st, string) Group.machine -> ('op, 'st) config -> 'op report
(** Execute one simulation until the workload drains (or the event
    budget trips — reported, never raised).  The machine's output is
    the operation's response, already encoded: the runner records it
    verbatim into the {!hist}, only a spec-aware checker decodes it.
    @raise Invalid_argument ["Runner.run: a client has 2^20 or more ops"]
    before simulating, see {!cid}. *)

(** {1 Command ids} *)

val cid : client:int -> seq:int -> int
(** The id of a client's [seq]-th command: the client in the high bits,
    [seq] in the low 20.  Ids are unique while [seq < 2^20]; a longer op
    list would make them collide, and a replica would then skip a later
    command as a duplicate of an earlier one. *)

val client_of_cid : int -> int
(** The client that {!cid} packed in. *)

val check_ops : who:string -> 'op list array -> unit
(** @raise Invalid_argument ["<who>: a client has 2^20 or more ops"]
    when some client's op list is too long for {!cid}. *)
