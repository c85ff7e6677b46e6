(** The sequential-object signature of the universal construction.

    Anything implementing {!S} can be lifted, unchanged, onto the
    replicated consensus log ({!Replicated}) or onto the shared-memory
    lock-free log ({!Smem}), and checked for linearizability by the
    generic Wing–Gong checker ({!Wg}).

    Two disciplines the constructions rely on:

    - {b purity}: [apply] must be a pure function of [(state, op)] —
      states are persistent values, never mutated in place.  The
      replicated runner snapshots and replays them, and the checker
      branches over many alternative futures of the same state.
    - {b single-line codecs}: every [*_to_string] must emit a string
      with no raw newline, because encodings travel inside
      one-record-per-line WALs and snapshot payloads.  Build them from
      {!Store.Codec}: [Store.Codec.quoted] for embedded strings (the
      [%S] quoting, which [Scanf]'s [%S] reads back) and
      [Store.Codec.int] for integers.  [digest] must be {e canonical}:
      two states that are equal as abstract objects must produce equal
      digests, whatever internal representation they carry. *)

module type S = sig
  type state
  type op
  type resp

  val name : string
  (** Short lowercase identifier, used by registries and CLIs. *)

  val init : state
  val apply : state -> op -> state * resp
  (** The entire sequential specification. *)

  val op_to_string : op -> string
  val op_of_string : string -> op
  (** Total codec: [op_of_string (op_to_string o)] must equal [o]. *)

  val resp_to_string : resp -> string
  (** Canonical response encoding — the Wing–Gong checker compares
      observed responses to specification responses by this string. *)

  val state_to_string : state -> string
  val state_of_string : string -> state
  (** Snapshot codec; [state_of_string ""] need not be supported, the
      constructions always snapshot through [state_to_string]. *)

  val digest : state -> string
  (** Canonical state fingerprint (replica-divergence checks and
      checker memoization). *)

  val pp_op : Format.formatter -> op -> unit

  val gen_op : rng:Dsim.Rng.t -> key:string -> tag:string -> op
  (** One operation of this object's characteristic mix, for workload
      generators: [key] is a (Zipf-skewed) contention point chosen by
      the caller, [tag] a run-unique string for fresh values.  Objects
      without a keyed interface (queue, stack, counter) may ignore
      [key]. *)
end

type packed = (module S)

let name (module O : S) = O.name
