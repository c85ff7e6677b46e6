(* A small secondary-index store: a primary map key -> value plus an
   inverted index value -> key set, kept consistent by every mutation.
   [Find] queries by value through the index; the digest covers both
   maps, so a construction that lets them drift is caught by replica
   divergence even before the linearizability checker looks at
   responses. *)

module M = Map.Make (String)
module S = Set.Make (String)

let q = Store.Codec.quoted

type state = { fwd : string M.t; inv : S.t M.t }

type op = Put of string * string | Del of string | Get of string | Find of string
type resp = Put_done | Deleted of bool | Got of string option | Keys of string list

let name = "index"
let init = { fwd = M.empty; inv = M.empty }

let inv_remove inv v k =
  match M.find_opt v inv with
  | None -> inv
  | Some ks ->
      let ks = S.remove k ks in
      if S.is_empty ks then M.remove v inv else M.add v ks inv

let inv_add inv v k =
  M.update v
    (function None -> Some (S.singleton k) | Some ks -> Some (S.add k ks))
    inv

let apply st = function
  | Put (k, v) ->
      let inv =
        match M.find_opt k st.fwd with
        | Some old -> inv_remove st.inv old k
        | None -> st.inv
      in
      ({ fwd = M.add k v st.fwd; inv = inv_add inv v k }, Put_done)
  | Del k -> (
      match M.find_opt k st.fwd with
      | None -> (st, Deleted false)
      | Some old ->
          ({ fwd = M.remove k st.fwd; inv = inv_remove st.inv old k }, Deleted true))
  | Get k -> (st, Got (M.find_opt k st.fwd))
  | Find v ->
      let ks =
        match M.find_opt v st.inv with None -> [] | Some ks -> S.elements ks
      in
      (st, Keys ks)

let pp_op ppf = function
  | Put (k, v) -> Format.fprintf ppf "PUT %s=%s" k v
  | Del k -> Format.fprintf ppf "DEL %s" k
  | Get k -> Format.fprintf ppf "GET %s" k
  | Find v -> Format.fprintf ppf "FIND %s" v

let op_to_string = function
  | Put (k, v) -> String.concat " " [ "P"; q k; q v ]
  | Del k -> "D " ^ q k
  | Get k -> "G " ^ q k
  | Find v -> "F " ^ q v

let op_of_string s =
  if String.length s < 2 then invalid_arg ("Index.op_of_string: " ^ s)
  else
    let rest = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'P' -> Scanf.sscanf rest " %S %S" (fun k v -> Put (k, v))
    | 'D' -> Scanf.sscanf rest " %S" (fun k -> Del k)
    | 'G' -> Scanf.sscanf rest " %S" (fun k -> Get k)
    | 'F' -> Scanf.sscanf rest " %S" (fun v -> Find v)
    | _ -> invalid_arg ("Index.op_of_string: " ^ s)

let resp_to_string = function
  | Put_done -> "put"
  | Deleted b -> if b then "del true" else "del false"
  | Got None -> "got -"
  | Got (Some v) -> "got " ^ q v
  | Keys ks -> String.concat " " ("keys" :: List.map q ks)

let state_to_string st =
  (* the index is derived: serializing the primary map is canonical and
     complete, [state_of_string] rebuilds the inverse *)
  let kvs = M.bindings st.fwd in
  String.concat " "
    (Store.Codec.int (List.length kvs)
    :: List.concat_map (fun (k, v) -> [ q k; q v ]) kvs)

let state_of_string s =
  let ib = Scanf.Scanning.from_string s in
  let n = Scanf.bscanf ib " %d" Fun.id in
  let pairs =
    List.init n (fun _ -> Scanf.bscanf ib " %S %S" (fun k v -> (k, v)))
  in
  List.fold_left (fun st (k, v) -> fst (apply st (Put (k, v)))) init pairs

let digest st =
  let fwd =
    M.bindings st.fwd
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
    |> String.concat ";"
  in
  let inv =
    M.bindings st.inv
    |> List.map (fun (v, ks) -> v ^ "<-" ^ String.concat "," (S.elements ks))
    |> String.concat ";"
  in
  fwd ^ "#" ^ inv

let gen_op ~rng ~key ~tag:_ =
  let group () = Printf.sprintf "g%d" (Dsim.Rng.int rng 3) in
  let roll = Dsim.Rng.int rng 100 in
  if roll < 45 then Put (key, group ())
  else if roll < 60 then Del key
  else if roll < 85 then Get key
  else Find (group ())
