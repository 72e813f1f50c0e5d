type fault =
  | Kill_node of { node : int; at : int }
  | Kill_point of { point : string; at : int; dur : int }
  | Frame_loss of { at : int; dur : int; p : float }
  | Frame_dup of { at : int; dur : int; p : float }
  | Frame_reorder of { at : int; dur : int; p : float }
  | Frame_delay of { at : int; dur : int; p : float; cycles : int }
  | Disk_errors of { at : int; dur : int; p : float }
  | Link_delay of {
      src : int;
      dst : int;
      at : int;
      dur : int;
      p : float;
      cycles : int;
    }
  | Partition of { src : int; dst : int; at : int; dur : int }

type t = { seed : int; faults : fault list }

let nfaults t = List.length t.faults

let kind = function
  | Kill_node _ -> "kill-node"
  | Kill_point _ -> "kill-point"
  | Frame_loss _ -> "loss"
  | Frame_dup _ -> "dup"
  | Frame_reorder _ -> "reorder"
  | Frame_delay _ -> "delay"
  | Disk_errors _ -> "disk"
  | Link_delay _ -> "link-delay"
  | Partition _ -> "partition"

let fault_to_string = function
  | Kill_node { node; at } -> Printf.sprintf "kill-node(%d)@%d" node at
  | Kill_point { point; at; dur } ->
    Printf.sprintf "kill-point(%s)@%d+%d" point at dur
  | Frame_loss { at; dur; p } ->
    Printf.sprintf "loss(p=%.2f)@%d+%d" p at dur
  | Frame_dup { at; dur; p } -> Printf.sprintf "dup(p=%.2f)@%d+%d" p at dur
  | Frame_reorder { at; dur; p } ->
    Printf.sprintf "reorder(p=%.2f)@%d+%d" p at dur
  | Frame_delay { at; dur; p; cycles } ->
    Printf.sprintf "delay(p=%.2f,%dcy)@%d+%d" p cycles at dur
  | Disk_errors { at; dur; p } ->
    Printf.sprintf "disk(p=%.2f)@%d+%d" p at dur
  | Link_delay { src; dst; at; dur; p; cycles } ->
    Printf.sprintf "link-delay(%d>%d,p=%.2f,%dcy)@%d+%d" src dst p cycles at
      dur
  | Partition { src; dst; at; dur } ->
    Printf.sprintf "partition(%d>%d)@%d+%d" src dst at dur

let to_string t =
  String.concat " "
    (Printf.sprintf "seed=%d" t.seed
     ::
     (match t.faults with
     | [] -> [ "(no faults)" ]
     | fs -> List.map fault_to_string fs))

let fault_of_string s =
  let fail () = invalid_arg (Printf.sprintf "Schedule.of_string: bad fault %S" s) in
  let parse head =
    match head with
    | "kill-node" ->
      Scanf.sscanf s "kill-node(%d)@%d%!" (fun node at -> Kill_node { node; at })
    | "kill-point" ->
      Scanf.sscanf s "kill-point(%[^)])@%d+%d%!" (fun point at dur ->
          Kill_point { point; at; dur })
    | "loss" ->
      Scanf.sscanf s "loss(p=%f)@%d+%d%!" (fun p at dur ->
          Frame_loss { at; dur; p })
    | "dup" ->
      Scanf.sscanf s "dup(p=%f)@%d+%d%!" (fun p at dur ->
          Frame_dup { at; dur; p })
    | "reorder" ->
      Scanf.sscanf s "reorder(p=%f)@%d+%d%!" (fun p at dur ->
          Frame_reorder { at; dur; p })
    | "delay" ->
      Scanf.sscanf s "delay(p=%f,%dcy)@%d+%d%!" (fun p cycles at dur ->
          Frame_delay { at; dur; p; cycles })
    | "disk" ->
      Scanf.sscanf s "disk(p=%f)@%d+%d%!" (fun p at dur ->
          Disk_errors { at; dur; p })
    | "link-delay" ->
      Scanf.sscanf s "link-delay(%d>%d,p=%f,%dcy)@%d+%d%!"
        (fun src dst p cycles at dur ->
          Link_delay { src; dst; at; dur; p; cycles })
    | "partition" ->
      Scanf.sscanf s "partition(%d>%d)@%d+%d%!" (fun src dst at dur ->
          Partition { src; dst; at; dur })
    | _ -> fail ()
  in
  match String.index_opt s '(' with
  | None -> fail ()
  | Some i -> (
    try parse (String.sub s 0 i) with
    | Scanf.Scan_failure _ | End_of_file | Failure _ -> fail ())

let of_string str =
  let toks =
    String.split_on_char ' ' (String.trim str)
    |> List.filter (fun t -> t <> "")
  in
  match toks with
  | [] -> invalid_arg "Schedule.of_string: empty schedule"
  | seedtok :: rest ->
    let seed =
      try Scanf.sscanf seedtok "seed=%d%!" Fun.id
      with Scanf.Scan_failure _ | End_of_file | Failure _ ->
        invalid_arg
          (Printf.sprintf "Schedule.of_string: expected seed=N, got %S" seedtok)
    in
    let faults =
      match rest with
      | [ "(no"; "faults)" ] | [] -> []
      | fs -> List.map fault_of_string fs
    in
    { seed; faults }

let subschedules t =
  List.mapi
    (fun i _ ->
      { t with faults = List.filteri (fun j _ -> j <> i) t.faults })
    t.faults
