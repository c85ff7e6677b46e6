(** Incremental per-phase counters for the decentralized variant
    (multivalued, distinct-sender semantics), installed as the node's
    delivery handler — the same O(1)-read discipline as [Ben_or.Tally]:
    counters live in an array indexed by phase, and reading a phase
    creates nothing.  A phase's flags and counts are one allocation.

    Every wait on the tally is for a quorum: a step count reaching
    [n - t] ({!Decentralized.Vac}).  So {!changed} is signalled only when a
    phase's proposer or second-step count reaches the quorum given at
    {!attach}, not on every counted message. *)

type t

val attach : Decentralized_msg.t Netsim.Async_net.t -> me:int -> quorum:int -> t
(** Create the tally and install it as node [me]'s delivery handler.
    [quorum] is the step count the node's waits need, [n - t]. *)

val changed : t -> Dsim.Engine.queue
(** Signalled when {!proposers} or {!second_senders} of a phase reaches
    the quorum.  An [Engine.await] naming it must poll for one of them
    being at least the quorum; a poll that could hold below it would
    never be woken ([Engine.Missed_wakeup]). *)

val proposers : t -> phase:int -> int
(** Distinct senders of ⟨1, ∗⟩ for the phase. *)

val majority_value : t -> phase:int -> n:int -> int option
(** The value proposed by a strict majority of all [n], if one exists. *)

val plurality : t -> phase:int -> int option
(** The value the most distinct senders proposed, the earliest-arrived
    first proposal breaking ties; [None] before any proposal. *)

val second_senders : t -> phase:int -> int
(** Distinct senders of second-step messages for the phase. *)

val ratified : t -> phase:int -> above:int -> (int * bool) option
(** One pass over the phase's ratifications: [Some (w, true)] for the
    smallest value that more than [above] distinct senders ratified,
    else [Some (w, false)] for the smallest ratified value, [None] when
    no sender ratified. *)

val forget_below : t -> phase:int -> unit
