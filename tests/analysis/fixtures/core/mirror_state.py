"""Fixture: REP006 — core writes a ForestState's ``visited`` only through
the counting transitions ``mark_visited``/``clear_visited``."""


class ForestState:
    def mark_visited(self, rows):
        self.visited[rows] = 1
        self.num_unvisited_y -= len(rows)

    def clear_visited(self, rows):
        self.visited[rows] = 0
        self.num_unvisited_y += len(rows)

    def reset_row(self, rows):
        self.visited[rows] = 0  # raw write, counters skipped: REP006


def bad_claim(state, rows):
    state.visited[rows] = 1  # raw write, counters skipped: REP006


def good_claim(state, rows):
    state.mark_visited(rows)


class OwnSteps:
    def claim(self, y):
        self.visited[y] = 1  # the engine's own array, not a ForestState's
