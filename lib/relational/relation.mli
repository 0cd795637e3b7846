(** Extensional relations: the one tuple store.

    A relation stores a bag-free (set-semantics) collection of tuples of a
    fixed schema, with lazily-built per-column hash indexes used by the
    conjunctive-query evaluator to avoid full scans.

    Live tuples iterate in insertion order.  Deletes tombstone and
    compaction keeps the survivors' order; a deleted tuple inserted
    again appends at the end.  The online engine's candidate order
    relies on this, and so does the durable layer: a snapshot image
    lists each table's tuples in this order and recovery re-inserts
    them in it, so a recovered store iterates, and answers
    first-answer probes, as the live one did. *)

type t

val create : ?version:int ref -> Schema.t -> t
(** [create ?version schema] makes an empty relation.

    [version] is the content-version stamp the relation bumps on every
    successful mutation; {!Database.create_table} passes the owning
    database's stamp so {!Database.data_version} is per-database.  A
    standalone relation defaults to a private stamp.

    The first column's hash index is built eagerly and maintained across
    compaction, so first-argument bucket cardinalities
    ({!count_matching}, {!estimate_bucket}) are live from the first
    insert. *)

val schema : t -> Schema.t

val name : t -> string

val arity : t -> int

val cardinal : t -> int

val insert : t -> Tuple.t -> bool
(** [insert r t] adds [t]; returns [false] (and leaves [r] unchanged) when
    the tuple was already present.
    @raise Invalid_argument if [t] has the wrong arity. *)

val delete : t -> Tuple.t -> bool
(** [delete r t] removes [t]; returns [false] when it was not present.
    Implemented with tombstones: row slots are marked dead and skipped
    by scans and index lookups; an index posting whose dead ids
    outnumber its live ones is filtered in place, and when more than
    half of all slots are dead the whole store and its indexes are
    compacted.  Supports consuming inventory after a coordinating set
    books its tuples. *)

val mem : t -> Tuple.t -> bool

val iter : (Tuple.t -> unit) -> t -> unit

val fold : ('acc -> Tuple.t -> 'acc) -> 'acc -> t -> 'acc

val to_list : t -> Tuple.t list

val find_matching : t -> col:int -> Value.t -> Tuple.t option
(** First (insertion-order) live tuple whose [col]-th field equals [v],
    served from the column's hash index (built on first use). *)

val matching_rows : t -> col:int -> Value.t -> int Vec.t
(** The row ids of the tuples whose [col]-th field equals [v], in
    insertion order, tombstoned rows included: test each with {!live}
    and read it with {!row}.  The evaluator scans these without a
    closure.  The vector is the index's own: read it, never write it,
    and not across a write to the relation. *)

val rows : t -> int
(** Row ids in use, [0 .. rows r - 1], tombstoned rows included. *)

val live : t -> int -> bool
(** Whether a row id holds a live tuple. *)

val row : t -> int -> Tuple.t
(** The tuple of a row id (see {!live}). *)

val count_matching : t -> col:int -> Value.t -> int
(** Number of tuples with the given value in the given column, from the
    index.  Used by the evaluator's selectivity heuristic. *)

val posting_length : t -> col:int -> Value.t -> int
(** Physical length of the index posting for the given column value,
    including not-yet-pruned tombstoned row ids.  [count_matching] is
    the live count; the difference is dead ids a scan still has to skip.
    Postings are pruned in place once dead ids outnumber live ones, so
    [posting_length r ~col v <= 2 * count_matching r ~col v] holds after
    any delete (until the whole store compacts).  Exposed for tests and
    diagnostics. *)

val version : t -> int
(** Current value of the relation's content-version stamp (see
    {!create}). *)

val grown : t -> int
(** The content-version stamp as of the relation's last successful
    {!insert}, or as of its creation if it never had one.  Deletes leave
    it alone, so [grown r > v] says exactly whether [r] gained a tuple
    (or came into being) since the stamp read [v]. *)

val estimate_bucket : t -> col:int -> int
(** Expected live rows per index bucket of [col] (live cardinality over
    the number of distinct values with a live row, rounded up; 0 for an
    empty relation).  The
    planner's compile-time estimate for an index access path — constants
    are abstracted out of plan shapes, so the average bucket is the best
    estimate a shared plan can carry. *)

val active_domain : t -> Value.Set.t
(** All values occurring anywhere in the relation. *)

val pp : Format.formatter -> t -> unit
(** Prints the schema and all tuples, one per line. *)

val mutation_count : unit -> int
(** Process-wide count of extensional mutations: bumped on every
    successful {!insert} and {!delete} (in any relation) and by
    {!note_mutation}.  A cache keyed on database contents snapshots this
    and invalidates when it moves; sharing the counter across stores
    only ever over-invalidates. *)

val note_mutation : unit -> unit
(** Advance {!mutation_count} by hand — used by {!Database} for
    structural changes (table creation and removal). *)
