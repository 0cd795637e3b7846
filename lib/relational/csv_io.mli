(** Minimal CSV reading/writing for loading tables from disk.

    Supports the subset of RFC 4180 the workload files need: comma
    separation, double-quote quoting with doubled quotes inside quoted
    fields, and both LF and CRLF line endings. *)

exception Parse_error of int * string
(** [Parse_error (line, message)], lines counted from 1. *)

val parse_string : string -> string list list
(** Rows of fields.  Empty trailing line is ignored. *)

val load_file : string -> string list list

val load_relation : Database.t -> schema:Schema.t -> path:string -> Relation.t
(** Creates [schema]'s table in the database and fills it from the file,
    converting fields with {!Value.of_string}.  The first row must be a
    header matching the schema's attribute names.
    @raise Parse_error on malformed input or a header mismatch. *)

val write_string : string list list -> string

val save_relation : Relation.t -> path:string -> unit
(** Writes a header row of attribute names followed by all tuples.  A
    string that {!Value.of_string} would read back as another value
    (["42"], ["true"], ["'x'"]) is written single-quoted, so
    {!load_relation} returns the tuples saved. *)
