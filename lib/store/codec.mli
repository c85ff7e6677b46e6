(** The two primitives of the on-disk text format.

    WAL records, snapshot payloads and object states are single lines of
    space-separated tokens: integers in decimal and strings in OCaml
    string-literal quoting.  Every encoder on the durable write path
    builds its line from these two functions, so the bytes are exactly
    what [Printf]'s [%d] and [%S] produce (the decoders still read them
    back with [Scanf]) at a fraction of the cost. *)

val int : int -> string
(** [int n] is [string_of_int n], byte for byte. *)

val quoted : string -> string
(** [quoted s] is [Printf.sprintf "%S" s], byte for byte: [s] escaped
    by {!String.escaped} between double quotes.  The result never
    contains a raw newline. *)
