"""Byzantine behaviours used by the tests and the robustness experiments.

The paper's security model (S2.4) tolerates up to ``f`` arbitrary-behaviour
nodes out of ``N >= 3f + 1``.  This package provides concrete adversaries:

* :class:`~repro.adversary.crash.CrashedNode` — a node that never sends
  anything (fail-silent), the classic "Byzantine nodes may never initiate
  their VID Disperse" case the epoch protocol must survive (S4.2).
* :class:`~repro.adversary.crash.CrashAfterNode` — a node that behaves
  correctly until a given virtual time and is silent afterwards.
* :class:`~repro.adversary.equivocator.EquivocatingDisperserNode` — a
  proposer that disperses *inconsistent* chunks (different payloads to
  different servers), the attack AVID-M's re-encode check exists to
  neutralise (S3.2/S3.3): all correct nodes must agree on the fixed
  ``BAD_UPLOADER`` outcome.
* :class:`~repro.adversary.censor.CensoringNode` — a node that always votes
  0 on a victim's slot and reports a zero observation for the victim,
  attempting the censorship attack that inter-node linking defeats (S4.3).
* :mod:`repro.adversary.filters` — delivery filters for the instant router,
  used to emulate partitions and selective message loss in tests.
* :mod:`repro.adversary.registry` — :class:`AdversarySpec` and the
  :func:`register_adversary` registry, the declarative placement layer the
  scenario engine uses to drop any of the above into a simulated run
  (``repro.experiments.scenario``).  All four built-in kinds (``crash``,
  ``crash-after``, ``censor``, ``equivocate``) run on the bandwidth-accurate
  simulator; the node-class kinds are rebuilt from the honest node via
  :func:`rebuild_node`, carrying behaviour parameters (``victim``,
  ``split``) from the spec.

The package re-exports nothing: import each name from the module that
defines it, so a run loads only the adversaries it places.
"""

__all__: list[str] = []
