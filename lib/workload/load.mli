(** The shared heavy-traffic workload generator.

    One configuration describes a client population (count, per-client
    operation budget), a keyspace with Zipfian/hot-key skew and — for
    sharded deployments — a multi-shard transaction mix.  Every KV
    command is drawn by {!Obj.Kv.gen_op}, the KV object's own mix (60%
    SET, 25% GET, 15% CAS).  Both the single-group {!Rsm_load} harness
    and the sharded {!Shard_load} harness draw from here, so their
    per-run stats plumbing ({!throughput}, {!latency_opt}) and key
    distributions are one implementation.

    Shard-awareness: keys are partitioned into per-shard pools using
    the {e same} router hash the sharded runner uses, and skew is
    applied inside each pool — every shard has its own hot keys, the
    planet-scale traffic shape.  [shards = 1] degenerates to plain
    Zipf over the whole keyspace. *)

type t = {
  clients : int;
  ops_per_client : int;
  keys : int;
  zipf_s : float;  (** skew exponent; 0 = uniform *)
  tx_pct : int;  (** % of operations that are multi-key transactions *)
  tx_span : int;  (** shards a transaction touches (capped at [shards]) *)
  shards : int;
  seed : int;
}

val default : t

(** {1 Zipf sampling} *)

val make_cdf : keys:int -> s:float -> float array
(** Cumulative distribution of [i^-s] weights over ranks [1..keys]. *)

val zipf_pick : Dsim.Rng.t -> float array -> int
(** Index into the cdf by inverse-transform sampling. *)

val key_name : int -> string

(** {1 Generators} *)

val gen_kv_ops :
  ?shards:int ->
  ?keys:int ->
  ?zipf_s:float ->
  seed:int64 ->
  clients:int ->
  commands:int ->
  unit ->
  Obj.Kv.op list array
(** Plain key-value command lists (no transactions) — the single-group
    generator, shard-aware: with [shards > 1], traffic is balanced
    across the per-shard key pools.  Defaults: one shard, 8 keys, no
    skew. *)

val gen_obj_ops :
  (module Obj.Spec.S with type op = 'a) ->
  ?keys:int ->
  ?zipf_s:float ->
  seed:int64 ->
  clients:int ->
  commands:int ->
  unit ->
  'a list array
(** Per-object workloads: each command is drawn from the object's own
    characteristic mix ([Obj.Spec.S.gen_op]) at a Zipf-skewed key, so
    every instance sees contention shaped the same way the KV harness
    does.  Deterministic in [seed]. *)

val gen_shard_ops : t -> Shard.Runner.client_op list array
(** The sharded workload: singles plus [tx_pct]% multi-key
    transactions, each spanning [tx_span] distinct shards (when the
    deployment has them).  Deterministic in [t.seed]. *)

(** {1 Shared per-run stats} *)

val throughput : acked:int -> virtual_time:int -> float
(** Acked commands per 1000 virtual time units. *)

val latency_opt : float list -> Stats.summary option
