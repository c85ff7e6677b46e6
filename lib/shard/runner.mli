(** The sharded run: one {!Rsm.Group} per shard in one engine, each
    replica running its own {!Machine}, a {!Router} splitting the
    keyspace, two-phase commit over the logs for multi-key transactions,
    and a client layer sized for tens of thousands of simulated clients.
    Replica storage, crash and recovery are the group's, exactly as in
    {!Rsm.Runner}.

    {b 2PC over consensus.}  Every protocol record is a replicated
    command (see {!Cmd}): a coordinator submits [Prepare tx] (carrying
    the {e full} transaction) to every participant shard, collects the
    votes as they {e apply} — votes are deterministic functions of each
    shard's lock table, so the log is the source of truth — then
    submits [Decide] to the coordinator shard (the first applied decide
    for a txid is canonical) and fans [Outcome] records out to the
    other participants.  Because every step is readable from the logs,
    a crashed coordinator's transactions are finished by a periodic
    {e recovery daemon} that re-derives the next step from the recorded
    votes/decision — the coordinator keeps no state that matters.

    {b Clients.}  Pure callback state machines (no polling fibers):
    closed-loop clients issue their next operation when the previous
    completes; open-loop clients issue on a seeded exponential arrival
    process regardless of completion.  Completion is push-based: the
    group's [on_first_apply] and [on_ready] hooks, each deferred to a
    fresh engine event so it may submit again.

    {b Checking.}  Each group carries its own {!Rsm.Checker} (per-shard
    total order + durability audit); the cross-shard {!Checker} judges
    atomicity over the recorded votes and outcomes. *)

type faults = {
  engine : Dsim.Engine.t;
  crash : shard:int -> replica:int -> unit;
  restart : shard:int -> replica:int -> unit;
  partition : shard:int -> int list list -> unit;
  heal : shard:int -> unit;
  set_policy :
    shard:int ->
    (Cmd.t Rsm.Tob.entry Netsim.Async_net.envelope ->
    Netsim.Async_net.policy_verdict) ->
    unit;
  set_store_policy : shard:int -> Store.Policy.t -> unit;
}

type client_op =
  | Single of Obj.Kv.op  (** routed to one shard, no coordination *)
  | Tx of Cmd.wop list  (** multi-key write set, 2PC when it spans shards *)

type arrival =
  | Closed_loop of { think : int }
  | Open_loop of { mean_gap : float }

(** Test hook: simulate the coordinator dying at a protocol stage (the
    transaction is then finished by the recovery daemon, from the
    logs). *)
type crash_point = No_crash | After_prepare | After_decide

type config = {
  shards : int;
  replicas : int;  (** per shard *)
  backend : Rsm.Backend.t;
  batch : int;
  seed : int64;
  latency : Netsim.Latency.t;
  ops : client_op list array;  (** one list per client *)
  arrival : arrival;
  ack_timeout : int;
  max_events : int;
  store : Rsm.Runner.store_config option;
  inject : (faults -> unit) option;
  trace_capacity : int option;
  quiet : bool;
  broken_2pc : bool;
      (** mutant: the coordinator decides {e commit} on the first yes
          vote without waiting for the full prepare quorum — the bug
          {!Checker}'s commit-quorum property exists to catch *)
  coordinator_crash : int -> crash_point;  (** keyed by txid *)
  recovery_interval : int;
  recovery_timeout : int;
      (** a transaction idle this long is adopted by the recovery
          daemon *)
}

val default_config : shards:int -> ops:client_op list array -> config

type shard_report = {
  sr_shard : int;
  sr_violations : Rsm.Checker.violation list;
  sr_completeness : Rsm.Checker.violation list;
  sr_durability : Rsm.Checker.violation list;
  sr_digests_agree : bool;
  sr_digests : string array;
  sr_applied : int;  (** distinct commands applied (shard throughput) *)
  sr_delivered : int array;
  sr_slots : int;
  sr_instances : int;
  sr_messages_sent : int;
  sr_messages_delivered : int;
  sr_crashed : int list;
  sr_restarted : int list;
  sr_store_stats : Store.Disk.stats array;
}

type report = {
  engine_outcome : Dsim.Engine.outcome;
  virtual_time : int;
  singles_submitted : int;
  singles_acked : int;
  txs_started : int;
  txs_committed : int;  (** finished with a commit decision *)
  txs_aborted : int;
  atomicity : Checker.violation list;
  tx_completeness : Checker.violation list;
  shard_reports : shard_report array;
  single_latencies : float list;
  tx_latencies : float list;  (** committed transactions, start→ack *)
  abort_rate : float;
  trace : Dsim.Trace.t;
  groups : (Cmd.t, Machine.t, Machine.output) Rsm.Group.t array;
  router : Router.t;
}

val kv_key : Obj.Kv.op -> string
val run : config -> report
