(** One-page run report.

    Summarizes a full pipeline run — trace statistics, communication
    structure, grammar compression, computation-proxy quality, and the
    replay validation — as markdown, for humans deciding whether to trust
    a generated proxy. *)

val generate_synthesis : Pipeline.synthesis -> string
(** Builds the report over a (possibly cache-served)
    {!Pipeline.synthesis}; replays the original and the proxy once on
    the generation platform ({!Pipeline.diff_synthesis}) for the
    validation and fidelity sections.  When caching was on, a Cache
    section lists which stages were served from the store; the Trace
    section is reconstructed from the stored run measurements, so a
    fully warm report never re-runs the tracer.  The stage table lists
    the synthesis' rows followed by the diff's check, capture and diff
    rows. *)

val write_file_synthesis : Pipeline.synthesis -> path:string -> unit
