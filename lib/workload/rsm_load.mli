(** Closed-loop client workloads for the RSM subsystem, and the
    throughput sweeps built on them (the multi-shot analogue of
    {!Experiments}).

    A workload is K closed-loop clients, each issuing M key-value
    commands drawn deterministically from a seed: the KV object's
    [SET] / [GET] / [CAS] mix ({!Obj.Kv.gen_op}) over a bounded,
    Zipf-skewed key space, so CAS contention and read-your-writes
    patterns actually occur.  Generation and per-run stats live in
    {!Load}, shared with the sharded harness ({!Shard_load}). *)

module Kv_rep : sig
  type state

  val app :
    ?drop_nth:int -> unit -> (Obj.Kv.op, state, string) Rsm.Group.machine
end
(** The KV object lifted onto the consensus log
    ([Obj.Replicated.Make (Obj.Kv)]), re-exported so RSM callers can run
    workloads without instantiating the functor themselves. *)

val kv_app : (Obj.Kv.op, Kv_rep.state, string) Rsm.Group.machine
(** [Kv_rep.app ()] — the honest replicated KV machine. *)

val gen_ops :
  seed:int64 -> clients:int -> commands:int -> unit -> Obj.Kv.op list array
(** One command list per client ([commands] each) over 8 distinct keys
    (small on purpose, to create contention) at Zipf skew 1.1:
    {!Load.gen_kv_ops} on one shard. *)

val crash_plan : n:int -> crashes:int -> (int * int) list
(** A staggered schedule crashing [crashes] distinct replicas early in
    the run.  @raise Invalid_argument unless [0 <= crashes < n]. *)

val crash_restart_plan :
  n:int -> crashes:int -> ?down_for:int -> unit -> (int * int) list * (int * int) list
(** The crash–{e recovery} variant: the same staggered crash schedule
    paired with a restart schedule bringing each victim back [down_for]
    (default 150) virtual-time units after its crash — the recoverable
    crash–restart model.  Feed the pair to
    {!Rsm.Runner.config.crash_schedule} / [restart_schedule]. *)

(** One run's scorecard, ready for tables. *)
type summary = {
  backend_name : string;
  batch : int;
  n : int;
  clients : int;
  commands : int;  (** distinct commands submitted *)
  acked : int;
  crashes : int;
  restarts : int;
  virtual_time : int;
  slots : int;
  instances : int;  (** nested binary consensus instances *)
  messages : int;
  throughput : float;  (** acked commands per 1000 virtual time units *)
  latency : Stats.summary option;  (** submit-to-ack virtual times *)
  violations : int;
      (** order + completeness + durability violations (want 0) *)
  ok : bool;  (** zero violations and identical live-replica digests *)
}

val summarize :
  (Obj.Kv.op, _) Rsm.Runner.config -> Obj.Kv.op Rsm.Runner.report -> summary

val run_one :
  ?n:int ->
  ?clients:int ->
  ?commands:int ->
  ?batch:int ->
  ?crashes:int ->
  ?restart_after:int ->
  ?seed:int ->
  ?trace_capacity:int ->
  ?quiet:bool ->
  ?ack_timeout:int ->
  ?max_events:int ->
  ?inject:((Obj.Kv.op, Kv_rep.state, string) Rsm.Group.t -> unit) ->
  ?store:Rsm.Runner.store_config ->
  backend:Rsm.Backend.t ->
  unit ->
  Obj.Kv.op Rsm.Runner.report * summary
(** Defaults: 5 replicas, 4 clients x 8 commands, batch 8, no crashes,
    seed 1.  [restart_after] turns the crash schedule into the
    crash–restart plan (each victim recovers that long after its crash).
    [trace_capacity] bounds retained trace events, [quiet] (default
    false) disables tracing entirely — no trace strings are built, and
    outcomes are unchanged ({!Rsm.Runner.config.quiet}) —, [inject]
    hands the run's group to an external fault injector (see
    {!Rsm.Runner}),
    [store] gives every replica a simulated WAL-backed disk (durable
    crash–recovery model; durability-audit violations count into
    [summary.violations]). *)

val sweep_batches :
  ?clients:int ->
  ?commands:int ->
  ?seeds:int ->
  ?batches:int list ->
  ?backends:Rsm.Backend.t list ->
  ?jobs:int ->
  Format.formatter ->
  summary list
(** The batching-throughput table: 5 replicas on every backend at every
    batch size (defaults {1, 8, 32}), averaged over [seeds] (default 3)
    seeds —
    the experimental check that batching amortizes consensus latency.
    Returns one (mean-throughput) summary per backend x batch cell.
    [jobs] (default 1) fans the backend x batch cells over that many
    domains ({!Exec.Pool}); cell results and the printed table are
    identical at every job count. *)
