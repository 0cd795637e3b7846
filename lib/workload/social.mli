(** Synthetic substitute for the paper's Slashdot social-network table.

    The paper loads an 82168-row table and writes query bodies that are
    simple and guaranteed satisfiable.  We generate a [Posts(pid, topic)]
    table of the same size: row ids are sequential, topics cycle through
    a fixed pool so every topic is guaranteed to exist — matching "for
    each body there is at least one tuple satisfying it". *)

val slashdot_row_count : int
(** 82168, the size reported in Section 6.1. *)

val install_posts :
  ?rows:int -> ?topics:int -> Relational.Database.t -> Relational.Relation.t
(** Creates and fills the table ([rows] defaults to
    {!slashdot_row_count}, [topics] to 100).  Topic [t] of row [r] is
    ["t<r mod topics>"]. *)

val topic : int -> string
(** The topic constant for index [i] (callers pick [i < topics]). *)
