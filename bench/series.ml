(* Shared sink for benchmark series.  Figures and ablations record the
   tables they print here as well; `--csv DIR` drains them per figure
   and `--json FILE` drains everything at once, so external tooling can
   track the numbers without scraping stdout. *)

(* name -> header :: rows, rows kept in reverse insertion order *)
let tables : (string, string list list) Hashtbl.t = Hashtbl.create 8

(* name -> key/value metrics attached to a series (e.g. probe-latency
   percentiles from the Obs histograms), reverse insertion order *)
let table_metrics : (string, (string * string) list) Hashtbl.t =
  Hashtbl.create 8

let start name columns =
  Hashtbl.replace tables name [ columns ];
  Hashtbl.remove table_metrics name

let row name values =
  match Hashtbl.find_opt tables name with
  | Some rows -> Hashtbl.replace tables name (values :: rows)
  | None -> ()

let rows name =
  match Hashtbl.find_opt tables name with
  | Some rows -> List.rev rows
  | None -> []

let metric name key value =
  let existing = Option.value ~default:[] (Hashtbl.find_opt table_metrics name) in
  Hashtbl.replace table_metrics name ((key, value) :: existing)

let metrics name =
  match Hashtbl.find_opt table_metrics name with
  | Some kvs -> List.rev kvs
  | None -> []

let names () = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tables [])

(* ------------------------------ JSON ------------------------------ *)

(* All cell values are already strings; numbers among them are emitted
   bare so consumers get real JSON numbers, everything else is quoted. *)

let is_number s =
  s <> "" && match float_of_string_opt s with Some _ -> true | None -> false

let add_cell b s =
  if is_number s then Buffer.add_string b s else Json.add_string b s

let add_list b add xs =
  Buffer.add_char b '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      add b x)
    xs;
  Buffer.add_char b ']'

let to_json () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  List.iteri
    (fun i name ->
      if i > 0 then Buffer.add_string b ",\n";
      let columns, data =
        match rows name with [] -> ([], []) | cols :: data -> (cols, data)
      in
      Buffer.add_string b "  ";
      Json.add_string b name;
      Buffer.add_string b ": {\"columns\": ";
      add_list b Json.add_string columns;
      Buffer.add_string b ", \"rows\": ";
      add_list b (fun b r -> add_list b add_cell r) data;
      (match metrics name with
      | [] -> ()
      | kvs ->
        Buffer.add_string b ", \"metrics\": {";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            Json.add_string b k;
            Buffer.add_string b ": ";
            add_cell b v)
          kvs;
        Buffer.add_char b '}');
      Buffer.add_char b '}')
    (names ());
  Buffer.add_string b "\n}\n";
  Buffer.contents b

let write_json path =
  let oc = open_out path in
  output_string oc (to_json ());
  close_out oc;
  Printf.printf "(wrote %s)\n" path
