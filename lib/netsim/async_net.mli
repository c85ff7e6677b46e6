(** Asynchronous message-passing network with crash faults.

    Built on {!Dsim.Engine}: a send schedules a delivery event after a delay
    drawn from the {!Latency} model.  Delivered messages reach a per-node
    push handler ({!set_handler}) and, when retained, a per-node inbox.
    A process waiting on an inbox names {!inbox_queue}; one waiting on
    crash or partition state names {!topology}.

    Faults and adversity available:
    - {!crash}: a node stops receiving (its inbox freezes) — the standard
      crash-stop model.  In-flight messages from the node still arrive.
    - [partial] sends: crash a node part-way through a broadcast (the model
      used by Ben-Or's analysis).
    - per-message {!policy}: drop / duplicate / extra-delay decisions made
      by an adversary callback at send time.
    - {!set_partition}: cut the network into groups; messages crossing a
      cut at send time are dropped until {!heal}.

    When the engine has a {!Dsim.Engine.oracle} installed (schedule
    exploration), the network routes its own nondeterminism through it
    instead of the latency model and RNG: each policy-approved send asks
    the ["net.fault"] domain (0 = deliver, 1 = drop) and, if delivered,
    the ["net.delay"] domain for extra slack on top of a base latency of
    1.  Deliveries are scheduled with the recipient as the event owner,
    so the explorer can treat same-tick deliveries to distinct nodes as
    commutative.  Oracle-free runs are byte-identical to before. *)

type 'msg envelope = {
  env_id : int;  (** unique per network, in send order *)
  src : int;
  dst : int;
  sent_at : int;
  payload : 'msg;
}

(** An adversary's verdict on one message at send time. *)
type policy_verdict =
  | Deliver  (** normal delivery per the latency model *)
  | Drop  (** silently lost *)
  | Duplicate of int  (** deliver 1 + n copies (each with fresh delay) *)
  | Delay_extra of int  (** add this to the sampled latency *)

type 'msg t

val create :
  Dsim.Engine.t ->
  n:int ->
  ?latency:Latency.t ->
  ?policy:('msg envelope -> policy_verdict) ->
  ?retain_inbox:bool ->
  unit ->
  'msg t
(** A network of [n] nodes (ids [0 .. n-1]).  Default latency:
    [Uniform (1, 10)].  Default policy: deliver everything.
    [retain_inbox] (default true) keeps every delivered envelope for
    {!inbox}-style scans; protocols that consume messages through
    {!set_handler} should pass false — retained inboxes make long runs
    quadratic. *)

val n : 'msg t -> int
val engine : 'msg t -> Dsim.Engine.t

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Send one message.  No-op if [src] is crashed. *)

val broadcast : 'msg t -> src:int -> 'msg -> unit
(** Send to every node, including [src] itself (self-delivery also goes
    through the latency model, as in the standard model where a processor
    counts its own message). *)

val broadcast_to : 'msg t -> src:int -> dsts:int list -> 'msg -> unit
(** Send to an explicit subset — used to model a crash mid-broadcast. *)

val inbox : 'msg t -> int -> 'msg envelope list
(** All messages delivered to this node so far, in delivery order. *)

val in_flight : 'msg t -> 'msg envelope list
(** Every envelope scheduled for delivery but not yet delivered, in
    send ([env_id]) order.  Model-checker fingerprints fold this in so
    two states that look alike but differ in what is still on the wire
    (e.g. after an explored message drop) hash differently — the
    soundness requirement for pruning at a positive fault budget.
    O(in-flight arena); not a hot-path call. *)

val inbox_count : 'msg t -> int -> ('msg envelope -> bool) -> int
(** Number of delivered messages satisfying the predicate. *)

val distinct_senders : 'msg t -> int -> ('msg envelope -> bool) -> int
(** Number of {e distinct sources} that delivered at least one matching
    message — the count quorum protocols must use to stay correct under
    message duplication. *)

val inbox_queue : 'msg t -> int -> Dsim.Engine.queue
(** Signalled after every delivery into the node's retained inbox: the
    queue an [Engine.await] over {!inbox}, {!inbox_count} or
    {!distinct_senders} names.  Never signalled without
    [retain_inbox]. *)

val topology : 'msg t -> Dsim.Engine.queue
(** Signalled by {!crash}, {!restart}, {!set_partition} and {!heal}:
    the queue an [Engine.await] over {!is_crashed}, {!crashed_count} or
    {!partition_groups} names. *)

val set_handler : 'msg t -> int -> ('msg envelope -> unit) -> unit
(** Push-style delivery for event-driven protocols (Raft): the callback
    runs at delivery time, in scheduler context, after the inbox append.
    One handler per node; setting again replaces it. *)

val crash : 'msg t -> int -> unit
(** Crash-stop the node: it stops receiving from now on.  Does not touch
    the engine process running the node's protocol — kill that separately
    (or use the higher-level runners in [workload]). *)

val restart : 'msg t -> int -> unit
(** Bring a crashed node back: it receives messages sent from now on;
    messages that arrived while it was down are lost. *)

val is_crashed : 'msg t -> int -> bool
val crashed_count : 'msg t -> int

val set_partition : 'msg t -> int list list -> unit
(** Install a partition: each inner list is a group; messages whose
    endpoints are in different groups are dropped at send time.  Nodes
    absent from every group are isolated. *)

val heal : 'msg t -> unit
(** Remove any partition. *)

val partition_groups : 'msg t -> int list list option
(** The currently-installed partition, exactly as given to
    {!set_partition}; [None] when the network is whole.  Lets layers
    above (e.g. the RSM's quorum gate) reason about which side of a
    cut can make progress. *)

val messages_sent : 'msg t -> int
(** Total sends attempted (including dropped ones). *)

val messages_delivered : 'msg t -> int
(** Total deliveries completed. *)
