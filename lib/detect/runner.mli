(** Indulgent one-shot consensus: single-decree Paxos with the
    coordinator elected by the Ω oracle.

    Safety (agreement + validity) comes from ballot fencing and
    majority quorums alone — acceptors never consult the detector —
    so it holds in {e every} execution, including under the lying
    mutants.  Liveness is conditional: whenever the detector
    eventually stabilises on a live leader that can reach a majority,
    the run decides.  That split is the indulgence argument of
    DESIGN §14. *)

type msg =
  | Hb of bool option  (** heartbeat carrying the sender's decision *)
  | Prepare of int
  | Promise of int * (int * bool) option
  | Accept of int * bool
  | Accepted of int
  | Nack of int

(** Fault-injection surface handed to [install] — the hooks
    [Nemesis.Interp.install_detect] drives.  Crash/restart are
    network-level (a crashed node stops sending and receiving);
    acceptor state is modelled durable, as Paxos requires. *)
type faults = {
  engine : Dsim.Engine.t;
  crash : int -> unit;
  restart : int -> unit;
  partition : int list list -> unit;
  heal : unit -> unit;
  set_policy : (msg Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict) -> unit;
}

type report = {
  n : int;
  outcome : Dsim.Engine.outcome;
  decisions : bool option array;
  decided_at : int option array;
  agreement_ok : bool;
  validity_ok : bool;
  all_live_decided : bool;
      (** at least one decision, and every network-live node has it *)
  first_decision : int option;
  last_decision : int option;
  heartbeats_sent : int;
  suspicions : int;
  false_suspicions : int;
  unsuspicions : int;
  omega_changes : int;
  omega_stable_at : int option;
  messages_sent : int;
  virtual_time : int;
  engine : Dsim.Engine.t;
}

val run :
  ?settle:bool ->
  ?n:int ->
  ?seed:int64 ->
  ?params:Timeout.params ->
  ?mutant:Oracle.mutant ->
  ?inputs:bool array ->
  ?horizon:int ->
  ?max_events:int ->
  ?quiet:bool ->
  ?install:(faults -> unit) ->
  unit ->
  report
(** One simulated instance.  Defaults: [n = 4], disagreeing inputs,
    honest detector, [horizon = 5000].  [install] runs after setup and
    before the engine, so a nemesis plan can be scheduled against the
    run.  Deterministic in all arguments.

    [settle] (default [false]) ends the run once every node has
    decided, with {!Dsim.Engine.settle}.  The decisions and their times
    are then those of the full run; [outcome], [virtual_time] and the
    message, heartbeat and detector counts stop there.  Only for
    {!decide}, which reads the decision and the last decision time. *)

val decide : seed:int64 -> inputs:bool array -> bool * int
(** The {!Rsm.Backend.S} contract: a fresh fault-free nested instance
    deciding one binary value, returning (decision, virtual time
    taken).  [inputs] must be non-empty. *)
