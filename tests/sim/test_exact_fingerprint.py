"""Golden fingerprints of exact-mode simulation.

Exact mode is the reference-fidelity path: every frame dispatches its
kernel events one by one and integrates each battery segment by segment.
Speed work on that path must not move a single bit of its output, so
this table pins, per scenario, everything a run reports — frame count,
why and when it ended, per-node death times and delivered charge, the
kernel event count, link transactions, DVS switches, stalls — plus
SHA-256 digests of the delivery timestamps and of the trace or
telemetry payload.

One row per paper experiment (run to exhaustion on the tiny 25 mAh
cell), plus one row per branch of the hot path that the paper specs
leave cold: the trace recorder, telemetry (event log, energy ledger and
battery monitors), jittered and corrupting link timing,
store-and-forward hops, sleep-in-slack, a recovery run with an injected
fault, and rotation with a reconfiguration cost. The values were
captured before the hot path was slimmed; a change here means exact
mode computes something different.

The ``tier2`` class pins the eight paper experiments at full scale
(``-m tier2``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing as t

import pytest

from repro.core.experiments import PAPER_EXPERIMENTS, ExperimentRun, run_experiment
from repro.core.policies import DVSDuringIOPolicy, PinnedLevelsPolicy
from repro.hw.link import PAPER_LINK_TIMING_JITTERED, TransactionTiming
from repro.pipeline.engine import PipelineEngine, PipelineResult

from tests.conftest import tiny_battery_factory
from tests.pipeline.test_engine import make_config

TINY = dict(battery_factory=tiny_battery_factory)


def _sha(payload: t.Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _reprs(values: dict[str, float]) -> dict[str, str]:
    return {name: repr(value) for name, value in sorted(values.items())}


def _telemetry_payload(obs: t.Any) -> dict[str, t.Any]:
    """Telemetry ``as_dict`` minus spans, which hold wall-clock times."""
    payload = obs.as_dict()
    payload.pop("spans")
    return payload


def fingerprint(result: ExperimentRun | PipelineResult) -> dict[str, t.Any]:
    """Everything an exact run reports, digested where it is bulky."""
    if isinstance(result, ExperimentRun) and result.pipeline is None:
        # Single-node no-I/O run: the node computes until it dies.
        (death,) = result.death_times_s.values()
        pipe = None
        row: dict[str, t.Any] = {
            "frames": result.frames,
            "end_reason": "all-dead",
            "end_s": repr(death),
            "death_s": _reprs(result.death_times_s),
            "sim_events": result.sim_events,
        }
        trace, obs = result.trace, result.obs
    else:
        if isinstance(result, ExperimentRun):
            pipe = result.pipeline
            assert result.sim_events == pipe.events_processed
        else:
            pipe = result
        trace, obs = pipe.trace, pipe.obs
        row = {
            "frames": pipe.frames_completed,
            "end_reason": pipe.end_reason,
            "end_s": repr(pipe.end_time_s),
            "death_s": _reprs(pipe.death_times_s),
            "delivered_mah": _reprs(pipe.delivered_mah),
            "sim_events": pipe.events_processed,
            "link_tx": dict(sorted(pipe.link_transactions.items())),
            "level_switches": dict(sorted(pipe.level_switches.items())),
            "io_stalls": dict(sorted(pipe.stage_stalls.items())),
            "results_sha": _sha([repr(ts) for ts in pipe.result_times_s]),
        }
        if pipe.migrations:
            row["migrations"] = [[repr(ts), name] for ts, name in pipe.migrations]
        if pipe.monitors:
            row["monitors_sha"] = _sha(
                {name: m.as_dict() for name, m in sorted(pipe.monitors.items())}
            )
    if trace is not None:
        row["trace_sha"] = _sha(trace.as_dict())
    if obs is not None:
        row["telemetry_sha"] = _sha(_telemetry_payload(obs))
    return row


def _paper(label: str, **kwargs: t.Any) -> t.Callable[[], ExperimentRun]:
    return lambda: run_experiment(PAPER_EXPERIMENTS[label], **TINY, **kwargs)


def _sleep_in_slack() -> PipelineResult:
    cfg = make_config(cuts=(1,))
    cfg.sleep_in_slack = True
    return PipelineEngine(cfg).run()


def _recovery_fail_at() -> PipelineResult:
    cfg = make_config(
        cuts=(1,),
        policy=DVSDuringIOPolicy(PinnedLevelsPolicy([73.7, 118.0])),
        recovery=True,
    )
    engine = PipelineEngine(cfg)
    engine.nodes["node2"].fail_at(23.5)
    return engine.run()


def _store_and_forward() -> ExperimentRun:
    spec = dataclasses.replace(PAPER_EXPERIMENTS["2A"], deadline_s=3.5)
    return run_experiment(spec, store_and_forward=True, **TINY)


#: Scenario name -> a zero-argument callable running it in exact mode.
SCENARIOS: dict[str, t.Callable[[], ExperimentRun | PipelineResult]] = {
    **{label: _paper(label) for label in sorted(PAPER_EXPERIMENTS)},
    "trace": _paper("2A", trace=True),
    "telemetry": _paper("2B", telemetry=True, monitor_interval_s=60.0),
    "jittered": _paper("2", timing=PAPER_LINK_TIMING_JITTERED, seed=7),
    "corrupting": _paper("2A", timing=TransactionTiming(corruption_prob=0.05), seed=3),
    "store_and_forward": _store_and_forward,
    "sleep_in_slack": _sleep_in_slack,
    "recovery_fail_at": _recovery_fail_at,
    "rotation": _paper("2C", rotation_reconfig_s=0.05, telemetry=True),
}

#: Scenario name -> its fingerprint.
EXPECTED: dict[str, dict[str, t.Any]] = {'0A': {'frames': 143,
        'end_reason': 'all-dead',
        'end_s': '157.77702922486344',
        'death_s': {'node1': '157.77702922486344'},
        'sim_events': 153},
 '0B': {'frames': 154,
        'end_reason': 'all-dead',
        'end_s': '340.419750876942',
        'death_s': {'node1': '340.419750876942'},
        'sim_events': 164},
 '1': {'frames': 96,
       'end_reason': 'all-dead',
       'end_s': '223.10000000000036',
       'death_s': {'node1': '222.88219797111987'},
       'delivered_mah': {'node1': '5.714146161276526'},
       'sim_events': 1274,
       'link_tx': {'host->node1': 97, 'node1->host': 96},
       'level_switches': {'node1': 1},
       'io_stalls': {'node1': 55},
       'results_sha': '1b412c457918fc00'},
 '1A': {'frames': 113,
        'end_reason': 'all-dead',
        'end_s': '262.20000000000056',
        'death_s': {'node1': '260.1998651636498'},
        'delivered_mah': {'node1': '5.72373326065468'},
        'sim_events': 1493,
        'link_tx': {'host->node1': 114, 'node1->host': 113},
        'level_switches': {'node1': 226},
        'io_stalls': {'node1': 70},
        'results_sha': 'c17436763d9fa7d2'},
 '2': {'frames': 160,
       'end_reason': 'stall',
       'end_s': '416.3000000000013',
       'death_s': {'node2': '370.4555554976656'},
       'delivered_mah': {'node1': '3.615142397575087', 'node2': '5.7520398830644766'},
       'sim_events': 2615,
       'link_tx': {'host->node1': 162,
                   'host->node2': 0,
                   'node1->host': 0,
                   'node1->node2': 161,
                   'node2->host': 160,
                   'node2->node1': 0},
       'level_switches': {'node1': 0, 'node2': 1},
       'io_stalls': {'node1': 162, 'node2': 161},
       'results_sha': '6b9cb9e8b33f05ba'},
 '2A': {'frames': 162,
        'end_reason': 'stall',
        'end_s': '420.90000000000134',
        'death_s': {'node2': '374.8517389915723'},
        'delivered_mah': {'node1': '3.6598402291078584', 'node2': '5.753181339548644'},
        'sim_events': 2648,
        'link_tx': {'host->node1': 164,
                    'host->node2': 0,
                    'node1->host': 0,
                    'node1->node2': 163,
                    'node2->host': 162,
                    'node2->node1': 0},
        'level_switches': {'node1': 0, 'node2': 325},
        'io_stalls': {'node1': 164, 'node2': 163},
        'results_sha': '62f21f07e411e16c'},
 '2B': {'frames': 196,
        'end_reason': 'all-dead',
        'end_s': '466.90000000000157',
        'death_s': {'node1': '466.1419552836968', 'node2': '357.2492138695642'},
        'delivered_mah': {'node1': '5.757626877389603', 'node2': '5.7486135980251065'},
        'sim_events': 5088,
        'link_tx': {'host->node1': 199,
                    'host->node2': 0,
                    'node1->host': 42,
                    'node1->node2': 155,
                    'node2->host': 154,
                    'node2->node1': 155},
        'level_switches': {'node1': 396, 'node2': 309},
        'io_stalls': {'node1': 311, 'node2': 155},
        'results_sha': 'a9f6ce570b84a4a8',
        'migrations': [['365.0445143136785', 'node1']]},
 '2C': {'frames': 199,
        'end_reason': 'all-dead',
        'end_s': '462.30000000000155',
        'death_s': {'node1': '458.9231111087762', 'node2': '462.02362223821115'},
        'delivered_mah': {'node1': '5.761568345468384', 'node2': '5.7889339700928755'},
        'sim_events': 3220,
        'link_tx': {'host->node1': 100,
                    'host->node2': 100,
                    'node1->host': 99,
                    'node1->node2': 99,
                    'node2->host': 100,
                    'node2->node1': 99},
        'level_switches': {'node1': 199, 'node2': 200},
        'io_stalls': {'node1': 198, 'node2': 200},
        'results_sha': '76b65fd2a13e89f8'},
 'corrupting': {'frames': 162,
                'end_reason': 'stall',
                'end_s': '420.90000000000134',
                'death_s': {'node2': '375.2338813555902'},
                'delivered_mah': {'node1': '3.6558811595854146',
                                  'node2': '5.753338681810028'},
                'sim_events': 2631,
                'link_tx': {'host->node1': 163,
                            'host->node2': 0,
                            'node1->host': 0,
                            'node1->node2': 162,
                            'node2->host': 162,
                            'node2->node1': 0},
                'level_switches': {'node1': 0, 'node2': 324},
                'io_stalls': {'node1': 169, 'node2': 129},
                'results_sha': '5a4ae37b53376850'},
 'jittered': {'frames': 160,
              'end_reason': 'stall',
              'end_s': '416.3000000000013',
              'death_s': {'node2': '370.96371321576095'},
              'delivered_mah': {'node1': '3.611382878511112',
                                'node2': '5.752167498813663'},
              'sim_events': 2618,
              'link_tx': {'host->node1': 162,
                          'host->node2': 0,
                          'node1->host': 0,
                          'node1->node2': 161,
                          'node2->host': 160,
                          'node2->node1': 0},
              'level_switches': {'node1': 0, 'node2': 1},
              'io_stalls': {'node1': 162, 'node2': 161},
              'results_sha': '31031b301802f844'},
 'recovery_fail_at': {'frames': 116,
                      'end_reason': 'all-dead',
                      'end_s': '278.30000000000064',
                      'death_s': {'node1': '278.229739831044', 'node2': '23.5'},
                      'delivered_mah': {'node1': '5.7241069760322025',
                                        'node2': '0.3674184722901508'},
                      'sim_events': 1590,
                      'link_tx': {'host->node1': 119,
                                  'host->node2': 0,
                                  'node1->host': 107,
                                  'node1->node2': 10,
                                  'node2->host': 9,
                                  'node2->node1': 10},
                      'level_switches': {'node1': 236, 'node2': 19},
                      'io_stalls': {'node1': 21, 'node2': 10},
                      'results_sha': '48c0c6caa2f34e1f',
                      'migrations': [['31.45451431367752', 'node1']]},
 'rotation': {'frames': 199,
              'end_reason': 'all-dead',
              'end_s': '462.30000000000155',
              'death_s': {'node1': '458.91130858523655', 'node2': '461.9737543359096'},
              'delivered_mah': {'node1': '5.761566300953495',
                                'node2': '5.78891264379842'},
              'sim_events': 3223,
              'link_tx': {'host->node1': 100,
                          'host->node2': 100,
                          'node1->host': 99,
                          'node1->node2': 99,
                          'node2->host': 100,
                          'node2->node1': 99},
              'level_switches': {'node1': 199, 'node2': 200},
              'io_stalls': {'node1': 198, 'node2': 200},
              'results_sha': 'e1f73d05144b608f',
              'telemetry_sha': 'e58a50e24304cca1'},
 'sleep_in_slack': {'frames': 166,
                    'end_reason': 'stall',
                    'end_s': '430.1000000000014',
                    'death_s': {'node2': '383.7377061683467'},
                    'delivered_mah': {'node1': '3.2006689485575124',
                                      'node2': '5.755495487310266'},
                    'sim_events': 3377,
                    'link_tx': {'host->node1': 168,
                                'host->node2': 0,
                                'node1->host': 0,
                                'node1->node2': 167,
                                'node2->host': 166,
                                'node2->node1': 0},
                    'level_switches': {'node1': 0, 'node2': 333},
                    'io_stalls': {'node1': 106, 'node2': 63},
                    'results_sha': '159bd67807ed958c'},
 'store_and_forward': {'frames': 132,
                       'end_reason': 'stall',
                       'end_s': '535.5',
                       'death_s': {'node2': '465.1779528370329'},
                       'delivered_mah': {'node1': '4.334437776949617',
                                         'node2': '5.776514521405185'},
                       'sim_events': 2170,
                       'link_tx': {'host->node1': 134,
                                   'host->node2': 0,
                                   'node1->host': 0,
                                   'node1->node2': 133,
                                   'node2->host': 132,
                                   'node2->node1': 0},
                       'level_switches': {'node1': 0, 'node2': 265},
                       'io_stalls': {'node1': 134, 'node2': 133},
                       'results_sha': 'db024eb62c07f5dc'},
 'telemetry': {'frames': 196,
               'end_reason': 'all-dead',
               'end_s': '466.90000000000157',
               'death_s': {'node1': '466.1419552836968', 'node2': '357.2492138695642'},
               'delivered_mah': {'node1': '5.757626877389603',
                                 'node2': '5.7486135980251065'},
               'sim_events': 5088,
               'link_tx': {'host->node1': 199,
                           'host->node2': 0,
                           'node1->host': 42,
                           'node1->node2': 155,
                           'node2->host': 154,
                           'node2->node1': 155},
               'level_switches': {'node1': 396, 'node2': 309},
               'io_stalls': {'node1': 311, 'node2': 155},
               'results_sha': 'a9f6ce570b84a4a8',
               'migrations': [['365.0445143136785', 'node1']],
               'monitors_sha': '0c9b2292ceab538a',
               'telemetry_sha': 'ad0dec15e43b9ed5'},
 'trace': {'frames': 162,
           'end_reason': 'stall',
           'end_s': '420.90000000000134',
           'death_s': {'node2': '374.8517389915723'},
           'delivered_mah': {'node1': '3.6598402291078584',
                             'node2': '5.753181339548644'},
           'sim_events': 2648,
           'link_tx': {'host->node1': 164,
                       'host->node2': 0,
                       'node1->host': 0,
                       'node1->node2': 163,
                       'node2->host': 162,
                       'node2->node1': 0},
           'level_switches': {'node1': 0, 'node2': 325},
           'io_stalls': {'node1': 164, 'node2': 163},
           'results_sha': '62f21f07e411e16c',
           'trace_sha': 'e2e50186941fe928'}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_exact_fingerprint(name: str) -> None:
    assert fingerprint(SCENARIOS[name]()) == EXPECTED[name]


#: Paper label -> its full-scale fingerprint.
EXPECTED_FULL_SCALE: dict[str, dict[str, t.Any]] = {'0A': {'frames': 11218,
        'end_reason': 'all-dead',
        'end_s': '12340.84281371367',
        'death_s': {'node1': '12340.84281371367'},
        'sim_events': 11244},
 '0B': {'frames': 20507,
        'end_reason': 'all-dead',
        'end_s': '45115.648053192024',
        'death_s': {'node1': '45115.648053192024'},
        'sim_events': 20561},
 '1': {'frames': 9509,
       'end_reason': 'all-dead',
       'end_s': '21872.99999999613',
       'death_s': {'node1': '21872.122927927827'},
       'delivered_mah': {'node1': '560.7666066548013'},
       'sim_events': 123697,
       'link_tx': {'host->node1': 9510, 'node1->host': 9509},
       'level_switches': {'node1': 1},
       'io_stalls': {'node1': 2872},
       'results_sha': '4802368573981f91'},
 '1A': {'frames': 12467,
        'end_reason': 'all-dead',
        'end_s': '28676.399999993977',
        'death_s': {'node1': '28675.815811168977'},
        'delivered_mah': {'node1': '631.2163592225104'},
        'sim_events': 162174,
        'link_tx': {'host->node1': 12468, 'node1->host': 12467},
        'level_switches': {'node1': 24935},
        'io_stalls': {'node1': 5830},
        'results_sha': '4802368573981f91'},
 '2': {'frames': 22307,
       'end_reason': 'stall',
       'end_s': '51354.400000016205',
       'death_s': {'node2': '51308.84029005006'},
       'delivered_mah': {'node1': '498.5765798753209', 'node2': '798.3169728198936'},
       'sim_events': 357031,
       'link_tx': {'host->node1': 22309,
                   'host->node2': 0,
                   'node1->host': 0,
                   'node1->node2': 22308,
                   'node2->host': 22307,
                   'node2->node1': 0},
       'level_switches': {'node1': 0, 'node2': 1},
       'io_stalls': {'node1': 22309, 'node2': 22308},
       'results_sha': '12cecbe877801979'},
 '2A': {'frames': 22711,
        'end_reason': 'stall',
        'end_s': '52283.60000001738',
        'death_s': {'node2': '52238.50073938821'},
        'delivered_mah': {'node1': '507.60554184492327', 'node2': '803.4187428163839'},
        'sim_events': 363497,
        'link_tx': {'host->node1': 22713,
                    'host->node2': 0,
                    'node1->host': 0,
                    'node1->node2': 22712,
                    'node2->host': 22711,
                    'node2->node1': 0},
        'level_switches': {'node1': 0, 'node2': 45423},
        'io_stalls': {'node1': 22713, 'node2': 22712},
        'results_sha': '12cecbe877801979'},
 '2B': {'frames': 25724,
        'end_reason': 'all-dead',
        'end_s': '59595.30000002663',
        'death_s': {'node1': '59594.045160177244', 'node2': '48528.02174457514'},
        'delivered_mah': {'node1': '716.5533833374739', 'node2': '782.3727614860227'},
        'sim_events': 672365,
        'link_tx': {'host->node1': 25727,
                    'host->node2': 0,
                    'node1->host': 4626,
                    'node1->node2': 21099,
                    'node2->host': 21098,
                    'node2->node1': 21099},
        'level_switches': {'node1': 51453, 'node2': 42197},
        'io_stalls': {'node1': 42199, 'node2': 21099},
        'results_sha': '4627a55a445613b4',
        'migrations': [['48536.2445143263', 'node1']]},
 '2C': {'frames': 30653,
        'end_reason': 'stall',
        'end_s': '70550.2000000405',
        'death_s': {'node2': '70505.31900566531'},
        'delivered_mah': {'node1': '884.3505874812266', 'node2': '885.0438858052366'},
        'sim_events': 490034,
        'link_tx': {'host->node1': 15355,
                    'host->node2': 15300,
                    'node1->host': 15300,
                    'node1->node2': 15201,
                    'node2->host': 15353,
                    'node2->node1': 15147},
        'level_switches': {'node1': 30600, 'node2': 30707},
        'io_stalls': {'node1': 30502, 'node2': 30501},
        'results_sha': 'adbb07428a5b01cf'}}


@pytest.mark.tier2
class TestFullScale:
    """The eight Fig. 10 runs on the paper-calibrated cell."""

    @pytest.mark.parametrize("label", sorted(PAPER_EXPERIMENTS))
    def test_paper_fingerprint(self, label: str) -> None:
        run = run_experiment(PAPER_EXPERIMENTS[label], mode="exact")
        assert fingerprint(run) == EXPECTED_FULL_SCALE[label]
