type t = {
  name : string;
  attrs : string array;
  positions : (string, int) Hashtbl.t;
}

let validate name attrs =
  let rec duplicate = function
    | [] -> None
    | a :: rest -> if List.mem a rest then Some a else duplicate rest
  in
  if name = "" then Error "empty relation name"
  else if attrs = [] then Error "empty attribute list"
  else
    match duplicate attrs with
    | Some a -> Error (Printf.sprintf "duplicate attribute %S in %s" a name)
    | None -> Ok ()

let make name attrs =
  (match validate name attrs with
  | Error why -> invalid_arg ("Schema.make: " ^ why)
  | Ok () -> ());
  let positions = Hashtbl.create (List.length attrs) in
  List.iteri (fun i a -> Hashtbl.add positions a i) attrs;
  { name; attrs = Array.of_list attrs; positions }

let name s = s.name

let arity s = Array.length s.attrs

let attributes s = Array.copy s.attrs

let attribute s i =
  if i < 0 || i >= Array.length s.attrs then
    invalid_arg (Printf.sprintf "Schema.attribute: index %d in %s" i s.name);
  s.attrs.(i)

let index_of s a =
  match Hashtbl.find_opt s.positions a with
  | Some i -> i
  | None -> raise Not_found

let mem_attribute s a = Hashtbl.mem s.positions a

let equal a b = a.name = b.name && a.attrs = b.attrs

let pp ppf s =
  Format.fprintf ppf "%s(%s)" s.name
    (String.concat ", " (Array.to_list s.attrs))
