(* LIFO stack of strings; state is the stack top-first. *)

type state = string list
type op = Push of string | Pop
type resp = Push_ok | Pop_got of string option

let name = "stack"
let init = []

let apply st = function
  | Push v -> (v :: st, Push_ok)
  | Pop -> (
      match st with [] -> ([], Pop_got None) | x :: rest -> (rest, Pop_got (Some x)))

let pp_op ppf = function
  | Push v -> Format.fprintf ppf "PUSH %s" v
  | Pop -> Format.fprintf ppf "POP"

let op_to_string = function Push v -> "U " ^ Store.Codec.quoted v | Pop -> "P"

let op_of_string s =
  if s = "P" then Pop
  else if String.length s > 1 && s.[0] = 'U' then
    Scanf.sscanf s "U %S" (fun v -> Push v)
  else invalid_arg ("Stack.op_of_string: " ^ s)

let resp_to_string = function
  | Push_ok -> "ok"
  | Pop_got None -> "pop -"
  | Pop_got (Some v) -> "pop " ^ Store.Codec.quoted v

let state_to_string st =
  String.concat " "
    (Store.Codec.int (List.length st) :: List.map Store.Codec.quoted st)

let state_of_string s =
  let ib = Scanf.Scanning.from_string s in
  let n = Scanf.bscanf ib " %d" Fun.id in
  List.init n (fun _ -> Scanf.bscanf ib " %S" Fun.id)

let digest = state_to_string

let gen_op ~rng ~key:_ ~tag =
  if Dsim.Rng.int rng 100 < 60 then Push tag else Pop
