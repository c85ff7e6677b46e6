type violation = {
  property : string;
  replica : int option;
  slot : int option;
  message : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "[%s]%s%s %s" v.property
    (match v.replica with Some r -> Printf.sprintf " replica %d" r | None -> "")
    (match v.slot with Some s -> Printf.sprintf " slot %d" s | None -> "")
    v.message

type t = {
  submitted : (int, unit) Hashtbl.t;
  acked : (int, unit) Hashtbl.t;
  applied : (int, (int * int) list ref) Hashtbl.t;
      (* replica -> (slot, cid) newest first *)
}

let create () =
  {
    submitted = Hashtbl.create 64;
    acked = Hashtbl.create 64;
    applied = Hashtbl.create 8;
  }

let record_submitted t ~cid = Hashtbl.replace t.submitted cid ()
let record_acked t ~cid = Hashtbl.replace t.acked cid ()

let record_applied t ~replica ~slot ~cid =
  let seq =
    match Hashtbl.find_opt t.applied replica with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace t.applied replica r;
        r
  in
  seq := (slot, cid) :: !seq

(* The replica crashed having durably persisted only its first
   [survived] applications: discard the volatile tail of its record so
   all order/agreement properties are judged against what recovery can
   actually reproduce. *)
let record_crashed t ~replica ~survived =
  match Hashtbl.find_opt t.applied replica with
  | None -> ()
  | Some seq ->
      let n = List.length !seq in
      if n > survived then
        seq := List.filteri (fun i _ -> i >= n - survived) !seq

(* [replica] installed [from_replica]'s snapshot covering slots up to
   [upto_slot]: its logical history becomes the donor's prefix. *)
let record_installed t ~replica ~from_replica ~upto_slot =
  let donor =
    match Hashtbl.find_opt t.applied from_replica with
    | Some seq -> List.filter (fun (slot, _) -> slot <= upto_slot) !seq
    | None -> []
  in
  match Hashtbl.find_opt t.applied replica with
  | Some seq -> seq := donor
  | None -> Hashtbl.replace t.applied replica (ref donor)

let applied_seq t ~replica =
  match Hashtbl.find_opt t.applied replica with
  | Some r -> List.rev !r
  | None -> []

let replicas t =
  Hashtbl.fold (fun r _ acc -> r :: acc) t.applied [] |> List.sort compare

let check_integrity t =
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (slot, cid) ->
          if Hashtbl.mem t.submitted cid then None
          else
            Some
              {
                property = "to-integrity";
                replica = Some r;
                slot = Some slot;
                message = Printf.sprintf "applied command %d was never submitted" cid;
              })
        (applied_seq t ~replica:r))
    (replicas t)

let check_no_duplication t =
  List.concat_map
    (fun r ->
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun (slot, cid) ->
          if Hashtbl.mem seen cid then
            Some
              {
                property = "to-no-duplication";
                replica = Some r;
                slot = Some slot;
                message = Printf.sprintf "command %d applied more than once" cid;
              }
          else begin
            Hashtbl.replace seen cid ();
            None
          end)
        (applied_seq t ~replica:r))
    (replicas t)

let check_slot_agreement t =
  (* slot -> first recorded (replica, cid sequence); later replicas must
     match it exactly. *)
  let reference : (int, int * int list) Hashtbl.t = Hashtbl.create 64 in
  let per_slot r =
    (* group the replica's (slot, cid) records by slot, preserving order *)
    let acc : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in
    List.iter
      (fun (slot, cid) ->
        match Hashtbl.find_opt acc slot with
        | Some l -> l := cid :: !l
        | None ->
            Hashtbl.replace acc slot (ref [ cid ]);
            order := slot :: !order)
      (applied_seq t ~replica:r);
    List.rev_map (fun s -> (s, List.rev !(Hashtbl.find acc s))) !order
  in
  List.concat_map
    (fun r ->
      List.filter_map
        (fun (slot, cids) ->
          match Hashtbl.find_opt reference slot with
          | None ->
              Hashtbl.replace reference slot (r, cids);
              None
          | Some (_, ref_cids) when ref_cids = cids -> None
          | Some (r0, _) ->
              Some
                {
                  property = "slot-agreement";
                  replica = Some r;
                  slot = Some slot;
                  message =
                    Printf.sprintf "slot contents differ from replica %d's" r0;
                })
        (per_slot r))
    (replicas t)

let is_prefix shorter longer =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (shorter, longer)

let check_prefix_agreement t =
  let seqs =
    List.map (fun r -> (r, List.map snd (applied_seq t ~replica:r))) (replicas t)
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  List.filter_map
    (fun ((r1, s1), (r2, s2)) ->
      let shorter, longer = if List.length s1 <= List.length s2 then (s1, s2) else (s2, s1) in
      if is_prefix shorter longer then None
      else
        Some
          {
            property = "to-prefix-agreement";
            replica = Some r1;
            slot = None;
            message =
              Printf.sprintf "applied sequences of replicas %d and %d diverge" r1 r2;
          })
    (pairs seqs)

let check t =
  check_integrity t @ check_no_duplication t @ check_slot_agreement t
  @ check_prefix_agreement t

let check_complete t ~live =
  let submitted = Hashtbl.fold (fun cid _ acc -> cid :: acc) t.submitted [] in
  List.concat_map
    (fun r ->
      let applied = Hashtbl.create 64 in
      List.iter
        (fun (_, cid) -> Hashtbl.replace applied cid ())
        (applied_seq t ~replica:r);
      List.filter_map
        (fun cid ->
          if Hashtbl.mem applied cid then None
          else
            Some
              {
                property = "to-completeness";
                replica = Some r;
                slot = None;
                message =
                  Printf.sprintf "live replica never applied submitted command %d" cid;
              })
        submitted)
    live

let check_durable t ~live =
  let acked = Hashtbl.fold (fun cid _ acc -> cid :: acc) t.acked [] in
  let held = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (_, cid) -> Hashtbl.replace held cid ())
        (applied_seq t ~replica:r))
    live;
  if live = [] then []
  else
    List.filter_map
      (fun cid ->
        if Hashtbl.mem held cid then None
        else
          Some
            {
              property = "durability";
              replica = None;
              slot = None;
              message =
                Printf.sprintf
                  "acknowledged command %d survives at no live replica" cid;
            })
      (List.sort compare acked)
