(* The replicated key-value store, re-homed from [Rsm.App] as just
   another sequential object.  The wire codec (G/S/C0/C1 tags, strings
   quoted by {!Store.Codec.quoted}) and the digest/snapshot formats are
   unchanged from the old App module, so WALs and traces read the same.
   Quoting makes every encoding total: any key or value round-trips,
   spaces, [;] and newlines included. *)

module M = Map.Make (String)

let q = Store.Codec.quoted

type state = string M.t

type op =
  | Get of string
  | Set of string * string
  | Cas of { key : string; expect : string option; update : string }

type resp = Got of string option | Done | Cas_result of bool

let name = "kv"
let init = M.empty

let apply st = function
  | Get k -> (st, Got (M.find_opt k st))
  | Set (k, v) -> (M.add k v st, Done)
  | Cas { key; expect; update } ->
      if M.find_opt key st = expect then (M.add key update st, Cas_result true)
      else (st, Cas_result false)

let pp_op ppf = function
  | Get k -> Format.fprintf ppf "GET %s" k
  | Set (k, v) -> Format.fprintf ppf "SET %s=%s" k v
  | Cas { key; expect; update } ->
      Format.fprintf ppf "CAS %s %s->%s" key
        (Option.value expect ~default:"\xe2\x88\x85")
        update

let op_to_string = function
  | Get k -> "G " ^ q k
  | Set (k, v) -> String.concat " " [ "S"; q k; q v ]
  | Cas { key; expect = None; update } ->
      String.concat " " [ "C0"; q key; q update ]
  | Cas { key; expect = Some e; update } ->
      String.concat " " [ "C1"; q key; q e; q update ]

let op_of_string s =
  match String.index_opt s ' ' with
  | None -> invalid_arg ("Kv.op_of_string: " ^ s)
  | Some i -> (
      let tag = String.sub s 0 i in
      let rest = String.sub s i (String.length s - i) in
      match tag with
      | "G" -> Scanf.sscanf rest " %S" (fun k -> Get k)
      | "S" -> Scanf.sscanf rest " %S %S" (fun k v -> Set (k, v))
      | "C0" ->
          Scanf.sscanf rest " %S %S" (fun key update ->
              Cas { key; expect = None; update })
      | "C1" ->
          Scanf.sscanf rest " %S %S %S" (fun key e update ->
              Cas { key; expect = Some e; update })
      | _ -> invalid_arg ("Kv.op_of_string: " ^ s))

let resp_to_string = function
  | Got None -> "got -"
  | Got (Some v) -> "got " ^ q v
  | Done -> "done"
  | Cas_result b -> if b then "cas true" else "cas false"

let digest st =
  M.bindings st |> List.map (fun (k, v) -> k ^ "=" ^ v) |> String.concat ";"

let state_to_string st =
  M.bindings st |> List.map (fun (k, v) -> q k ^ " " ^ q v) |> String.concat ";"

(* The pairs are read in sequence, not split on [;] first: a quoted key
   or value may contain one. *)
let state_of_string s =
  let ib = Scanf.Scanning.from_string s in
  let rec pairs acc =
    if Scanf.Scanning.end_of_input ib then acc
    else pairs (Scanf.bscanf ib " %S %S%_[;]" (fun k v -> M.add k v acc))
  in
  pairs M.empty

let gen_op ~rng ~key ~tag =
  let roll = Dsim.Rng.int rng 100 in
  if roll < 60 then Set (key, tag)
  else if roll < 85 then Get key
  else Cas { key; expect = None; update = "cas-" ^ tag }
