(** Incremental per-phase counters for the decentralized variant
    (multivalued, distinct-sender semantics), installed as the node's
    delivery handler — the same O(1)-read discipline as [Ben_or.Tally]:
    counters live in an array indexed by phase, and reading a phase
    creates nothing. *)

type t

val attach : Decentralized_msg.t Netsim.Async_net.t -> me:int -> t

val changed : t -> Dsim.Engine.queue
(** Signalled whenever a count changes: the queue an [Engine.await] on
    these counts names. *)

val proposers : t -> phase:int -> int
(** Distinct senders of ⟨1, ∗⟩ for the phase. *)

val proposals_in_arrival_order : t -> phase:int -> (int * int) list
(** [(sender, value)] per distinct proposer, earliest first. *)

val majority_value : t -> phase:int -> n:int -> int option
(** The value proposed by a strict majority of all [n], if one exists. *)

val second_senders : t -> phase:int -> int
(** Distinct senders of second-step messages for the phase. *)

val ratifies_for : t -> phase:int -> int -> int
(** Distinct senders ratifying this value. *)

val ratified_values : t -> phase:int -> int list
(** Values with at least one ratification, ascending. *)

val forget_below : t -> phase:int -> unit
