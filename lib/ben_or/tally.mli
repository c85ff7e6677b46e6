(** Incremental per-phase quorum counters for Ben-Or.

    Installed as the node's delivery handler, so every count is O(1) to
    read no matter how many messages the run has carried — scanning the
    inbox on every scheduler poll would make long executions quadratic.
    Counters live in an array indexed by phase; reading a phase that has
    no messages yet returns zeros and creates nothing.

    All counts are over {e distinct senders} (first message from a sender
    for a given phase/step wins), which keeps the protocol correct under
    message duplication.

    Every wait on a tally is for a quorum: a step count reaching [n - t]
    (paper Algorithm 5).  So {!changed} is signalled only when a phase's
    step-1 or step-2 count reaches the quorum given at {!attach}, the one
    change such a wait can act on, and not on every counted message. *)

type t

val attach : Messages.t Netsim.Async_net.t -> me:int -> quorum:int -> t
(** Create the tally and install it as node [me]'s delivery handler.
    [quorum] is the step count the node's waits need, [n - t]. *)

val changed : t -> Dsim.Engine.queue
(** Signalled when {!step1_senders} or {!step2_senders} of a phase
    reaches the quorum.  An [Engine.await] naming it must poll for one of
    them being at least the quorum; a poll that could hold below it would
    never be woken ([Engine.Missed_wakeup]). *)

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
