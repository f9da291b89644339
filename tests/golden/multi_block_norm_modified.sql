SELECT sum(((m.a + (2.0 * m.c)) * (1.0 / (exp(least(((-1.0) * (m.e - 4.5)), 709.0)) + 1.0)))) FROM m WHERE (m.m_site <> 'x');
