"""The CLI's parser surface, pinned: every command path and its options.

Each option is pinned as ``(option strings, dest, default, choices,
type, required, nargs)`` and compared as a set per command path, so a
refactor of how the parser is assembled (parent parsers, one module per
command family) may reorder options or reword help, but cannot add,
drop or change a command, flag, default or choice unnoticed.
"""

import argparse
import re
from pathlib import Path

import pytest

import repro.__main__
from repro.cli import build_parser, main


def _walk(parser, path=()):
    yield " ".join(path), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _walk(sub, (*path, name))


def _row(action):
    choices = action.choices
    if choices is not None:
        choices = tuple(sorted(choices))
    kind = None if action.type is None else action.type.__name__
    return (
        "/".join(action.option_strings),
        action.dest,
        action.default,
        choices,
        kind,
        action.required,
        action.nargs,
    )


def _surface():
    return {
        path: {
            _row(action)
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
        }
        for path, parser in _walk(build_parser())
    }


SURFACE = {
    '': {
        (
            '',
            'command',
            None,
            (
                'attack',
                'campaign',
                'evaluate',
                'federation',
                'generate',
                'obs',
                'privacy',
                'protect',
                'publish',
                'serve',
                'stats',
                'store',
                'stream',
                'task',
            ),
            None,
            True,
            'A...',
        ),
    },
    'generate': {
        ('--days', 'days', 7, None, 'int', False, None),
        ('--out', 'out', None, None, None, True, None),
        ('--period', 'period', 120.0, None, 'float', False, None),
        ('--seed', 'seed', 0, None, 'int', False, None),
        ('--users', 'users', 20, None, 'int', False, None),
    },
    'protect': {
        ('--cell-m', 'cell_m', 400.0, None, 'float', False, None),
        ('--epsilon', 'epsilon', 0.01, None, 'float', False, None),
        ('--epsilon-m', 'epsilon_m', 100.0, None, 'float', False, None),
        ('--input', 'input', None, None, None, True, None),
        (
            '--mechanism',
            'mechanism',
            'speed-smoothing',
            (
                'geo-indistinguishability',
                'identity',
                'spatial-cloaking',
                'speed-smoothing',
                'temporal-downsampling',
            ),
            None,
            False,
            None,
        ),
        ('--out', 'out', None, None, None, True, None),
        ('--seed', 'seed', 0, None, 'int', False, None),
        ('--window-s', 'window_s', 900.0, None, 'float', False, None),
    },
    'attack': {
        ('--background', 'background', None, None, None, False, None),
        ('--denoise-window', 'denoise_window', 9, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
    },
    'evaluate': {
        ('--cell-m', 'cell_m', 500.0, None, 'float', False, None),
        ('--protected', 'protected', None, None, None, True, None),
        ('--raw', 'raw', None, None, None, True, None),
        ('--top-k', 'top_k', 15, None, 'int', False, None),
    },
    'campaign': {
        ('--days', 'days', 3, None, 'int', False, None),
        (
            '--incentive',
            'incentive',
            'win-win',
            ('feedback', 'none', 'ranking', 'reward', 'win-win'),
            None,
            False,
            None,
        ),
        ('--loss', 'loss', 0.0, None, 'float', False, None),
        ('--out', 'out', None, None, None, False, None),
        ('--period', 'period', 300.0, None, 'float', False, None),
        ('--seed', 'seed', 0, None, 'int', False, None),
        ('--users', 'users', 20, None, 'int', False, None),
    },
    'stats': {
        ('--cell-m', 'cell_m', 500.0, None, 'float', False, None),
        ('--geojson', 'geojson', None, None, None, False, None),
        ('--input', 'input', None, None, None, True, None),
    },
    'publish': {
        ('--input', 'input', None, None, None, True, None),
        ('--lenient', 'lenient', False, None, None, False, 0),
        ('--max-poi-recall', 'max_poi_recall', 0.2, None, 'float', False, None),
        (
            '--objective',
            'objective',
            'crowded-places',
            ('crowded-places', 'distortion', 'traffic-flow'),
            None,
            False,
            None,
        ),
        ('--out', 'out', None, None, None, True, None),
        ('--seed', 'seed', 0, None, 'int', False, None),
    },
    'store': {
        ('', 'store_command', None, ('compact', 'query', 'stats'), None, True, 'A...'),
    },
    'store stats': {
        ('--buffer-capacity', 'buffer_capacity', 4096, None, 'int', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--input', 'input', None, None, None, True, None),
        (
            '--policy',
            'policy',
            'spill',
            ('drop-oldest', 'reject', 'spill'),
            None,
            False,
            None,
        ),
        ('--segment-capacity', 'segment_capacity', 4096, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
    },
    'store query': {
        ('--bbox', 'bbox', None, None, 'float', False, 4),
        ('--input', 'input', None, None, None, True, None),
        ('--out', 'out', None, None, None, False, None),
        ('--segment-capacity', 'segment_capacity', 4096, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--t0', 't0', None, None, 'float', False, None),
        ('--t1', 't1', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--user', 'user', None, None, None, False, None),
    },
    'store compact': {
        ('--input', 'input', None, None, None, True, None),
        ('--segment-capacity', 'segment_capacity', 4096, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
    },
    'stream': {
        ('', 'stream_command', None, ('alerts', 'views', 'watch'), None, True, 'A...'),
    },
    'stream views': {
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--last', 'last', 12, None, 'int', False, None),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'stream alerts': {
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--coverage-stalled', 'coverage_stalled', None, None, 'int', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--lag-p95-above', 'lag_p95_above', None, None, 'float', False, None),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--rate-below', 'rate_below', None, None, 'float', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--value-p95-above', 'value_p95_above', None, None, 'float', False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'stream watch': {
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--coverage-stalled', 'coverage_stalled', None, None, 'int', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--lag-p95-above', 'lag_p95_above', None, None, 'float', False, None),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--limit', 'limit', None, None, 'int', False, None),
        ('--rate-below', 'rate_below', None, None, 'float', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--value-p95-above', 'value_p95_above', None, None, 'float', False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'obs': {
        (
            '',
            'obs_command',
            None,
            ('dump', 'history', 'slo', 'top', 'trace', 'watch'),
            None,
            True,
            'A...',
        ),
    },
    'obs dump': {
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--json', 'json', False, None, None, False, 0),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'obs top': {
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--json', 'json', False, None, None, False, 0),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--limit', 'limit', 10, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'obs trace': {
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--limit', 'limit', 3, None, 'int', False, None),
        ('--sample-rate', 'sample_rate', 0.1, None, 'float', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--trace-id', 'trace_id', None, None, 'int', False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'obs history': {
        ('--cadence', 'cadence', 60.0, None, 'float', False, None),
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--last', 'last', 5, None, 'int', False, None),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--name', 'name', None, None, None, False, None),
        ('--query-window', 'query_window', None, None, 'float', False, None),
        ('--retain', 'retain', 512, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'obs slo': {
        ('--cadence', 'cadence', 60.0, None, 'float', False, None),
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--retain', 'retain', 512, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        (
            '--slo-flush-threshold',
            'slo_flush_threshold',
            0.025,
            None,
            'float',
            False,
            None,
        ),
        ('--slo-long-window', 'slo_long_window', 3600.0, None, 'float', False, None),
        ('--slo-max-staleness', 'slo_max_staleness', None, None, 'float', False, None),
        ('--slo-objective', 'slo_objective', 0.99, None, 'float', False, None),
        ('--slo-short-window', 'slo_short_window', 600.0, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'obs watch': {
        ('--cadence', 'cadence', 60.0, None, 'float', False, None),
        ('--cell-deg', 'cell_deg', 0.005, None, 'float', False, None),
        ('--flush-delay', 'flush_delay', 30.0, None, 'float', False, None),
        ('--history', 'history', 256, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--lateness', 'lateness', 1800.0, None, 'float', False, None),
        ('--limit', 'limit', None, None, 'int', False, None),
        ('--names', 'names', None, None, None, False, '*'),
        ('--retain', 'retain', 512, None, 'int', False, None),
        ('--series-limit', 'series_limit', 8, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--slide', 'slide', None, None, 'float', False, None),
        (
            '--slo-flush-threshold',
            'slo_flush_threshold',
            0.025,
            None,
            'float',
            False,
            None,
        ),
        ('--slo-long-window', 'slo_long_window', 3600.0, None, 'float', False, None),
        ('--slo-max-staleness', 'slo_max_staleness', None, None, 'float', False, None),
        ('--slo-objective', 'slo_objective', 0.99, None, 'float', False, None),
        ('--slo-short-window', 'slo_short_window', 600.0, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'serve': {
        ('--clients', 'clients', 3, None, 'int', False, None),
        ('--days', 'days', 2, None, 'int', False, None),
        ('--period', 'period', 600.0, None, 'float', False, None),
        ('--queue-capacity', 'queue_capacity', 256, None, 'int', False, None),
        ('--seed', 'seed', 0, None, 'int', False, None),
        ('--users', 'users', 20, None, 'int', False, None),
        ('--window', 'window', 3600.0, None, 'float', False, None),
    },
    'federation': {
        ('', 'federation_command', None, ('query', 'run', 'stats'), None, True, 'A...'),
    },
    'federation run': {
        ('--control-loss', 'control_loss', 0.0, None, 'float', False, None),
        ('--days', 'days', 1, None, 'int', False, None),
        ('--fail-at-hours', 'fail_at_hours', 6.0, None, 'float', False, None),
        ('--fail-for-hours', 'fail_for_hours', 6.0, None, 'float', False, None),
        ('--fail-hive', 'fail_hive', None, None, None, False, None),
        ('--hives', 'hives', 3, None, 'int', False, None),
        ('--period', 'period', 600.0, None, 'float', False, None),
        ('--seed', 'seed', 0, None, 'int', False, None),
        ('--users', 'users', 24, None, 'int', False, None),
    },
    'federation stats': {
        ('--devices', 'devices', 2000, None, 'int', False, None),
        ('--hives', 'hives', 4, None, 'int', False, None),
        ('--replicas', 'replicas', 128, None, 'int', False, None),
    },
    'federation query': {
        ('--bbox', 'bbox', None, None, 'float', False, 4),
        ('--hives', 'hives', 4, None, 'int', False, None),
        ('--input', 'input', None, None, None, True, None),
        ('--key-bits', 'key_bits', 256, None, 'int', False, None),
        ('--out', 'out', None, None, None, False, None),
        ('--secure', 'secure', False, None, None, False, 0),
        (
            '--secure-protocol',
            'secure_protocol',
            'auto',
            ('auto', 'masking', 'paillier'),
            None,
            False,
            None,
        ),
        ('--segment-capacity', 'segment_capacity', 4096, None, 'int', False, None),
        ('--shards', 'shards', 4, None, 'int', False, None),
        ('--t0', 't0', None, None, 'float', False, None),
        ('--t1', 't1', None, None, 'float', False, None),
        ('--task-name', 'task_name', 'ingested', None, None, False, None),
        ('--user', 'user', None, None, None, False, None),
    },
    'privacy': {
        ('', 'privacy_command', None, ('demo',), None, True, 'A...'),
    },
    'privacy demo': {
        ('--battery-floor', 'battery_floor', 0.3, None, 'float', False, None),
        ('--devices', 'devices', 12, None, 'int', False, None),
        ('--dropouts', 'dropouts', 2, None, 'int', False, None),
        ('--key-bits', 'key_bits', 256, None, 'int', False, None),
        (
            '--protocol',
            'protocol',
            'auto',
            ('auto', 'masking', 'paillier'),
            None,
            False,
            None,
        ),
        ('--seed', 'seed', 0, None, 'int', False, None),
    },
    'task': {
        ('', 'task_command', None, ('describe', 'vet'), None, True, 'A...'),
    },
    'task vet': {
        ('--samples', 'samples', 200, None, 'int', False, None),
        ('--seed', 'seed', 0, None, 'int', False, None),
        ('--spec', 'spec', None, None, None, True, None),
    },
    'task describe': {
        ('--spec', 'spec', None, None, None, True, None),
    },
}


def test_command_paths_are_pinned():
    assert set(_surface()) == set(SURFACE)


@pytest.mark.parametrize("path", sorted(SURFACE))
def test_options_of_each_command_are_pinned(path):
    assert _surface()[path] == SURFACE[path]


@pytest.mark.parametrize("path", sorted(SURFACE))
def test_help_exits_zero(path, capsys):
    with pytest.raises(SystemExit) as done:
        main([*path.split(), "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith("usage: repro")


def test_console_script_is_what_python_dash_m_runs():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    found = re.search(
        r'^repro = "([\w.]+):(\w+)"$', pyproject.read_text(), re.MULTILINE
    )
    assert found is not None, "pyproject.toml declares no repro console script"
    module, attribute = found.groups()
    target = getattr(__import__(module, fromlist=[attribute]), attribute)
    assert target is repro.__main__.main
