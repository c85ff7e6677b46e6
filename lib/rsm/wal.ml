type 'op entry = { cid : int; op : 'op }
type 'op item = Entry of int * int * 'op | Commit of int * int

module Codec = Store.Codec

let encode_entry ~op_to_string slot e =
  String.concat " " [ "E"; Codec.int slot; Codec.int e.cid; op_to_string e.op ]

let encode_commit slot winner =
  String.concat " " [ "C"; Codec.int slot; Codec.int winner ]

let decode_record ~op_of_string s =
  if String.length s > 0 && s.[0] = 'C' then
    Scanf.sscanf s "C %d %d" (fun slot w -> Commit (slot, w))
  else
    Scanf.sscanf s "E %d %d %[^\n]" (fun slot cid rest ->
        Entry (slot, cid, op_of_string rest))

let encode_snapshot ~upto ~state ~cids =
  String.concat "\n"
    [ Codec.int upto; state; String.concat "," (List.map Codec.int cids) ]

let decode_snapshot payload =
  match String.split_on_char '\n' payload with
  | upto :: state :: cids :: _ ->
      ( int_of_string upto,
        state,
        if cids = "" then []
        else List.map int_of_string (String.split_on_char ',' cids) )
  | _ -> invalid_arg "Wal: malformed snapshot payload"

type 'op recovered = {
  r_snap : (int * string * int list) option;
  r_slots : (int * int * 'op entry list) list;
  r_next_slot : int;
  r_cids : int list;
}

let recover ~op_of_string disk =
  let r_snap =
    Option.map
      (fun s -> decode_snapshot s.Store.Disk.payload)
      (Store.Disk.latest_snapshot disk)
  in
  let base_slot = match r_snap with Some (upto, _, _) -> upto | None -> -1 in
  let entries : (int, _ entry list ref) Hashtbl.t = Hashtbl.create 32 in
  let committed : (int, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (r : Store.Disk.record) ->
      match decode_record ~op_of_string r.Store.Disk.data with
      | Entry (slot, cid, op) when slot > base_slot ->
          let l =
            match Hashtbl.find_opt entries slot with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.replace entries slot l;
                l
          in
          (* retries may append a slot's records twice; replay is
             idempotent per (slot, cid) *)
          if not (List.exists (fun e -> e.cid = cid) !l) then
            l := !l @ [ { cid; op } ]
      | Commit (slot, w) when slot > base_slot ->
          if not (Hashtbl.mem committed slot) then Hashtbl.replace committed slot w
      | Entry _ | Commit _ -> ())
    (Store.Disk.read_back disk);
  let entries_of slot =
    match Hashtbl.find_opt entries slot with Some l -> !l | None -> []
  in
  let r_slots =
    Hashtbl.fold (fun slot w acc -> (slot, w, entries_of slot) :: acc) committed []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let rec prefix_end s = if Hashtbl.mem committed s then prefix_end (s + 1) else s in
  let r_next_slot = prefix_end (base_slot + 1) in
  let cid_set = Hashtbl.create 64 in
  (match r_snap with
  | Some (_, _, cids) -> List.iter (fun c -> Hashtbl.replace cid_set c ()) cids
  | None -> ());
  List.iter
    (fun (slot, _, es) ->
      if slot < r_next_slot then
        List.iter (fun e -> Hashtbl.replace cid_set e.cid ()) es)
    r_slots;
  let r_cids =
    Hashtbl.fold (fun c _ acc -> c :: acc) cid_set [] |> List.sort compare
  in
  { r_snap; r_slots; r_next_slot; r_cids }
