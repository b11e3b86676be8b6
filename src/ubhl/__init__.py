"""Union-bound Hoare logic toolkit: language, semantics, proof kernel,
Hoare embedding, differential-privacy case studies."""

__version__ = "0.1.0"

# the shipped case studies (`ubhl.cases`), named here so that the
# command line can offer them without loading the case builders
CASE_NAMES = ("rnm", "sv", "mwsv")
