"""Independent geometric verification layer.

Everything in this subpackage works directly from rational linear algebra on
coordinates: no chains, ensembles, tableaux or other combinatorial models are
consulted, so its outputs can arbitrate the combinatorial layers.

Import each name from the submodule that defines it (`arrangement`, `cells`,
`flats`, `weightsystems`, `linalg`, `simplex`).  This package re-exports
nothing, so importing one submodule loads only what that submodule needs:
the cheap arrangement module does not pull in the searches.
"""
