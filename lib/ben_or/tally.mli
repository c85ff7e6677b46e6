(** Incremental per-phase quorum counters for Ben-Or.

    Installed as the node's delivery handler, so every count is O(1) to
    read no matter how many messages the run has carried — scanning the
    inbox on every scheduler poll would make long executions quadratic.
    Counters live in an array indexed by phase; reading a phase that has
    no messages yet returns zeros and creates nothing.

    All counts are over {e distinct senders} (first message from a sender
    for a given phase/step wins), which keeps the protocol correct under
    message duplication. *)

type t

val attach : Messages.t Netsim.Async_net.t -> me:int -> t
(** Create the tally and install it as node [me]'s delivery handler. *)

val changed : t -> Dsim.Engine.queue
(** Signalled whenever a count changes: the queue an [Engine.await] on
    these counts names. *)

val step1_senders : t -> phase:int -> int
(** Distinct senders of ⟨1, ∗⟩ for the phase. *)

val reports_for : t -> phase:int -> bool -> int
(** Distinct senders whose first phase report carried this value. *)

val step2_senders : t -> phase:int -> int
(** Distinct senders of ⟨2, ∗⟩ for the phase. *)

val ratifies_for : t -> phase:int -> bool -> int
(** Distinct senders whose first phase-2 message was ⟨2, v, ratify⟩ with
    this value. *)

val forget_below : t -> phase:int -> unit
(** Drop counters for phases below the given one (memory hygiene on very
    long runs; counters for finished phases are never read again). *)
