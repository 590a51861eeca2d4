"""Measure how code survives across releases and what that implies for
how long an undiscovered in-code vulnerability can persist.

The pipeline: ingest version snapshots into digests (`ingest`), kept in
a lifetime store (`store`), measure
changed fractions between every version pair (`survival`, with the
curve types and their CSV form in `curves`), screen out
pre-stabilization versions and discontinuous events (`screening`), fit
the exponential-saturation model by maximum likelihood (`fitting`,
`model`), and convert fits into subtle/obvious discoverability bounds
(`discoverability`).  `synth` generates ground-truth corpora for
validating the whole chain, and `cli` ties the stages together as
subcommands over on-disk artifacts.

Importing the package loads none of these modules; import each from its
submodule, so a stage loads only what it runs.
"""

__version__ = "0.1.0"
