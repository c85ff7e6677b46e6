(** Per-object workloads over the replicated universal construction.

    One run lifts a sequential object ({!Obj.Spec.S}) onto the
    consensus log via [Obj.Replicated], drives it with closed-loop
    clients drawing from the object's own operation mix under Zipf
    contention ({!Load.gen_obj_ops}), and gates the result three ways:
    the total-order checker (order/completeness/durability), the
    cross-replica digest comparison, and the generic Wing–Gong
    linearizability check over the recorded concurrent history. *)

type injector = { inject : 'op 'st. ('op, 'st, string) Rsm.Group.t -> unit }
(** An object-agnostic fault injector.  The field is polymorphic so one
    injector (e.g. [Nemesis.Interp.install_rsm plan]) can be handed to
    runs over any object's op and state types. *)

type summary = {
  object_name : string;
  backend_name : string;
  n : int;
  clients : int;
  commands : int;  (** distinct commands submitted *)
  acked : int;
  crashes : int;
  restarts : int;
  virtual_time : int;
  slots : int;
  throughput : float;
  order_violations : int;
      (** total-order + completeness + durability violations *)
  wg_violations : string list;
      (** non-empty iff the history is not linearizable w.r.t. the
          sequential spec (or the checker's state budget tripped) *)
  wg_states : int;  (** states the Wing–Gong search visited *)
  digests_agree : bool;
  ok : bool;
}

val max_history : int
(** Event cap of the Wing–Gong checker (62); {!run} rejects
    workloads with more than this many commands. *)

val run :
  ?n:int ->
  ?clients:int ->
  ?commands:int ->
  ?batch:int ->
  ?crashes:int ->
  ?restart_after:int ->
  ?seed:int ->
  ?ack_timeout:int ->
  ?max_events:int ->
  ?inject:injector ->
  ?store:Rsm.Runner.store_config ->
  ?drop_nth:int ->
  backend:Rsm.Backend.t ->
  Obj.Spec.packed ->
  summary
(** One quiet replicated run of the given object over 8 keys at Zipf
    skew 1.1.  Defaults: 5 replicas, 3 clients x 6 commands, batch 8,
    seed 1.  [crashes] / [restart_after] behave as in {!Rsm_load.run_one};
    [drop_nth] builds the {e broken} universal construction that
    discards the n-th state-changing log entry's effect (the Wing–Gong
    check convicts it while order and digest gates stay silent). *)

val table : ?ppf:Format.formatter -> summary list -> unit
(** Print a fixed-width scorecard table of runs (byte-stable given equal
    summaries). *)
