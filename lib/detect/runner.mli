(** Indulgent one-shot consensus: single-decree Paxos with the
    coordinator elected by the Ω oracle.

    Safety (agreement + validity) comes from ballot fencing and
    majority quorums alone — acceptors never consult the detector —
    so it holds in {e every} execution, including under the lying
    mutants.  Liveness is conditional: whenever the detector
    eventually stabilises on a live leader that can reach a majority,
    the run decides.  That split is the indulgence argument of
    DESIGN §14.

    The protocol's nodes are {!start}: on a network the caller owns,
    each node's delivery handler (acceptor and learner) and
    coordinator fiber (proposer), plus the detector they share.
    {!run} is the whole-system run, with a horizon and a report, which
    the last node to decide stops; [Rsm.Backend.omega] places the same
    nodes on a nested network of its own. *)

type msg =
  | Hb of bool option  (** heartbeat carrying the sender's decision *)
  | Prepare of int
  | Promise of int * (int * bool) option
  | Accept of int * bool
  | Accepted of int
  | Nack of int

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

type nodes = {
  oracle : Oracle.t;
  decisions : bool option array;  (** per node; set once, never reset *)
  decided_at : int option array;  (** virtual time of each decision *)
  heartbeats_sent : int ref;  (** heartbeat messages sent so far *)
  stop : unit -> unit;
      (** end every coordinator's loop and stop the detector, so the
          engine can go quiescent *)
}
(** The nodes {!start} placed on a network, and what their run
    reports. *)

val start :
  net:msg Netsim.Async_net.t ->
  params:Timeout.params ->
  mutant:Oracle.mutant ->
  inputs:bool array ->
  on_decide:(int -> bool -> unit) ->
  nodes
(** Place one node per network id on [net]: install each node's
    delivery handler, create the detector, spawn the coordinators
    (named [coord0 .. coord{n-1}], rendered only when read) and start
    the detector, in that order, on the network's engine.  [inputs] has one value per node.
    [on_decide me v] runs once per node, inside the step where [me]
    decides [v], after [decisions] and [decided_at] record it; it may
    settle the engine ({!Dsim.Engine.settle}).  Call before running
    the engine. *)

val run :
  ?n:int ->
  ?seed:int64 ->
  ?params:Timeout.params ->
  ?mutant:Oracle.mutant ->
  ?inputs:bool array ->
  ?horizon:int ->
  ?max_events:int ->
  ?quiet:bool ->
  ?policy:(msg Netsim.Async_net.envelope -> Netsim.Async_net.policy_verdict) ->
  ?install:(msg Netsim.Async_net.t -> unit) ->
  unit ->
  report
(** One simulated instance: {!start} on a fresh engine and network,
    whose [on_decide] calls [stop] at the last of the [n] decisions.
    Defaults: [n = 4], disagreeing inputs, honest detector,
    [horizon = 5000].  The run's faults are its network's: [policy] is
    the network's per-message verdict, and [install] gets the network
    after setup and before the engine runs, so a nemesis plan can
    crash, restart and partition its nodes.  Deterministic in all
    arguments. *)
