SELECT sum((1.0 / (exp(least(((-0.1) * (200.3 - lineitem.l_shipdateG)), 709.0)) + 1.0))) FROM lineitem WHERE (lineitem.l_returnflag = 'R') AND (lineitem.l_linestatus = 'F');
