(** End-to-end RSM harness: K closed-loop clients drive one {!Group}
    under a fault schedule.

    The harness is a universal construction: it is parameterized by an
    {!app} — any pure sequential object with single-line codecs — and
    adapts it to the group's per-replica {!Group.machine}.  The KV store
    is one instance ([Obj.Kv] lifted via [Obj.Replicated]).  The group
    owns the replicas, their disks and what a crash erases; the runner
    owns only the clients, the supervisor that winds the group down,
    the fault schedules and the report.

    Clients are closed-loop with retry: each submits its next command to
    a live replica, waits for the group's ack rule ({!Group.is_ready}),
    and re-submits through another replica on timeout — so a command
    whose entry replica crashed mid-broadcast is still eventually
    ordered, and the duplicate-suppression path is exercised whenever
    the first copy survives after all.

    Faults come in three layers: the static [crash_schedule] /
    [restart_schedule] pairs (crash–stop and crash–recovery), and the
    generic [inject] hook handing a {!faults} controller to an external
    fault injector (the [Nemesis] subsystem) that can also partition the
    network and rewrite the per-message adversary policy mid-run. *)

type 'op faults = {
  engine : Dsim.Engine.t;
  crash : int -> unit;  (** {!Group.crash} *)
  restart : int -> unit;  (** {!Group.restart} *)
  partition : int list list -> unit;  (** install a network partition *)
  heal : unit -> unit;  (** remove any partition *)
  set_policy :
    ('op Tob.entry Netsim.Async_net.envelope ->
    Netsim.Async_net.policy_verdict) ->
    unit;
      (** replace the per-message adversary policy (drop / duplicate /
          delay verdicts at send time) *)
  set_store_policy : Store.Policy.t -> unit;
      (** replace the storage fault policy consulted by every replica's
          disk (no effect when the run has no [store] configured) *)
}
(** Live controller over one run's fault surface, handed to [inject]
    after the cluster is wired and before the simulation starts.  All
    functions may also be called later from scheduled engine events. *)

type ('op, 'st) app = {
  name : string;
  init : 'st;  (** initial sequential state *)
  apply : 'st -> 'op -> 'st * string;
      (** one deterministic sequential step; the [string] is the
          operation's response, already encoded (the runner records it
          verbatim into the {!hist}, only a spec-aware checker decodes
          it).  Must be pure — every replica applies the same log. *)
  op_to_string : 'op -> string;  (** WAL codec; must be newline-free *)
  op_of_string : string -> 'op;
  state_to_string : 'st -> string;  (** snapshot codec; newline-free *)
  state_of_string : string -> 'st;
  digest : 'st -> string;
      (** canonical fingerprint — equal states must yield equal digests,
          used for the cross-replica agreement gate *)
}
(** What the runner needs to know about the replicated object.  Build
    instances from any [Obj.Spec.S] via [Obj.Replicated.app]. *)

type store_config = Group.store_config = {
  policy : Store.Policy.t;
  snapshot_every : int;
  ack_before_fsync : bool;
}
(** See {!Group.store_config}. *)

val default_store_config : store_config
(** Honest disks ({!Store.Policy.none}), snapshot every 4 non-empty
    slots, ack after fsync. *)

type 'op config = {
  backend : Backend.t;
  n : int;  (** replicas *)
  batch : int;  (** max commands per slot proposal *)
  seed : int64;
  latency : Netsim.Latency.t;
  crash_schedule : (int * int) list;
      (** [(virtual_time, pid)]: crash-stop that replica at that time *)
  restart_schedule : (int * int) list;
      (** [(virtual_time, pid)]: restart that replica at that time
          (no-op unless it crashed earlier) *)
  inject : ('op faults -> unit) option;
      (** fault-injection hook, run once at virtual time 0 *)
  trace_capacity : int option;
      (** bound retained trace events (None = unbounded); long campaigns
          should bound this so traces don't retain the whole run *)
  quiet : bool;
      (** run the engine with tracing disabled: no trace strings are
          built or retained.  Scheduling, RNG draws and outcomes are
          unaffected — the checker never reads the trace — so quiet
          runs produce the same results as traced runs. *)
  batching : bool;
      (** same-tick batch draining in the engine (default [true]);
          purely a performance knob — runs are byte-identical either
          way *)
  ops : 'op list array;  (** one command list per client *)
  ack_timeout : int;  (** virtual time before a client re-submits *)
  max_events : int;  (** engine event budget (runaway guard) *)
  store : store_config option;
      (** [Some _] gives every replica a disk and a WAL, acks only
          durable commands, and recovers a restarted replica from what
          its disk reproduces (see {!Group}); [None] keeps the
          recoverable model where memory survives crashes. *)
}

val default_config : n:int -> ops:'op list array -> 'op config
(** Ben-Or backend, batch 8, seed 1, uniform 1-10 latency, no faults,
    unbounded trace, ack timeout 2000, 5M event budget, no store. *)

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
  virtual_time : int;  (** time of the last processed event *)
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

val run : ('op, 'st) app -> 'op config -> 'op report
(** Execute one simulation until the workload drains (or the event
    budget trips — reported, never raised). *)
