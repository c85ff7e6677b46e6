(* A fetch-and-add counter.  [Add] returns the post-increment value, so
   every mutation is observable — lost updates show up directly in
   responses, which makes this the sharpest instance for catching a
   construction that drops log entries. *)

type state = int
type op = Add of int | Read
type resp = Count of int

let name = "counter"
let init = 0

let apply st = function
  | Add d -> (st + d, Count (st + d))
  | Read -> (st, Count st)

let pp_op ppf = function
  | Add d -> Format.fprintf ppf "ADD %d" d
  | Read -> Format.fprintf ppf "READ"

let op_to_string = function Add d -> "A " ^ Store.Codec.int d | Read -> "R"

let op_of_string s =
  if s = "R" then Read
  else if String.length s > 1 && s.[0] = 'A' then
    Scanf.sscanf s "A %d" (fun d -> Add d)
  else invalid_arg ("Counter.op_of_string: " ^ s)

let resp_to_string (Count n) = "= " ^ Store.Codec.int n
let state_to_string = Store.Codec.int
let state_of_string = int_of_string
let digest = state_to_string

let gen_op ~rng ~key:_ ~tag:_ =
  if Dsim.Rng.int rng 100 < 70 then Add (1 + Dsim.Rng.int rng 9) else Read
